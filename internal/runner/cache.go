package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// CorruptDirName is the subdirectory of a cache root that quarantined
// entries are moved into, preserved for offline forensics (what got
// corrupted, and how) instead of being silently overwritten.
const CorruptDirName = "corrupt"

// Cache is the content-addressed on-disk result store. Entries are
// addressed by Key fingerprint: <Dir>/<fp[:2]>/<fp>.json, each a JSON
// envelope carrying the artifact plus enough integrity metadata that a
// corrupted or mismatched entry reads as a miss, never as bad data.
//
// A defective entry — an envelope that does not decode, or an artifact
// whose checksum does not match — is quarantined: the file moves to
// <Dir>/corrupt/, the corruption counter bumps, and one structured
// warning is emitted. The read still reports a miss, so the caller
// re-runs the job and the fresh Put heals the cache. A schema-version
// mismatch is not corruption (it is a deliberate invalidation) and reads
// as a plain miss.
//
// Writes are write-behind (see Put): an entry is served from memory until
// its write lands, so a job's result moves on without waiting for two
// fsyncs. Read the directory itself only after Flush, or after Pool.Run
// returns. Reads are indexed (see Get): an entry read and verified once
// is served from memory after that. The zero value with Dir set is ready
// to use.
type Cache struct {
	// Dir is the cache root; it is created on first Put.
	Dir string
	// schemaOverride replaces SchemaVersion when non-zero (a test seam).
	// Entries written under one schema are unreachable under another: the
	// version participates in the fingerprint and is checked again inside
	// the envelope.
	schemaOverride int
	// warn, when non-nil, receives the one structured warning emitted per
	// quarantined entry in place of the JSON line on stderr (a test seam).
	warn func(corruptionEvent)

	corrupt atomic.Int64

	// beforeRename, when non-nil, runs in a write after its temp file is
	// complete and synced, just before the rename; tests set it to hold a
	// write in flight.
	beforeRename func(fp, tmp string)

	mu      sync.Mutex
	pending map[string]*pendingPut // by fingerprint: entries whose write has not finished; built on first Put
	landed  *sync.Cond             // broadcast whenever a pending entry retires; built with pending
	err     error                  // first write error since the last Flush

	index      map[string][]byte // by fingerprint: artifacts a disk read verified; built on first such read
	indexBytes int               // the indexed artifacts' total length, at most indexCapBytes
	puts       uint64            // Puts so far; a disk read indexes its artifact only if none came during it
}

// maxPendingWrites bounds the fingerprints a Cache holds pending at once,
// and so its write goroutines and the memory behind them.
const maxPendingWrites = 16

// indexCapBytes bounds the artifact bytes a Cache's index holds. A read
// that would pass it clears the index first, so a daemon's memory grows
// with its working set only up to this bound.
const indexCapBytes = 64 << 20

// pendingPut is the newest artifact Put for one fingerprint whose write
// has not finished; gen counts the Puts that replaced it.
type pendingPut struct {
	key      Key
	artifact []byte
	gen      uint64
}

// corruptionEvent describes one quarantined cache entry.
type corruptionEvent struct {
	// Fingerprint is the entry's content address.
	Fingerprint string `json:"fingerprint"`
	// Reason says what failed: "undecodable envelope" or "artifact
	// checksum mismatch".
	Reason string `json:"reason"`
	// Quarantined is the path the defective file was moved to (empty when
	// the move itself failed and the file was left in place).
	Quarantined string `json:"quarantined,omitempty"`
}

// entry is the on-disk envelope of one cached artifact.
type entry struct {
	// Schema is the cache-schema version the entry was written under.
	Schema int `json:"schema"`
	// Key is the diagnostic rendering of the job key (not hashed).
	Key string `json:"key"`
	// Sum is the hex SHA-256 of Artifact, verified on the first read of
	// the entry by each Cache (later reads answer from its index).
	Sum string `json:"sum"`
	// Artifact is the serialized job result.
	Artifact []byte `json:"artifact"`
}

func (c *Cache) schema() int {
	if c.schemaOverride != 0 {
		return c.schemaOverride
	}
	return SchemaVersion
}

// Fingerprint returns the content address of key under this cache's
// schema version.
func (c *Cache) Fingerprint(key Key) string { return key.Fingerprint(c.schema()) }

func (c *Cache) path(fp string) string {
	return filepath.Join(c.Dir, fp[:2], fp+".json")
}

// Get returns a copy of the cached artifact for the fingerprint: the
// pending artifact while its write is in flight, else the indexed one,
// else the entry on disk. An entry read from disk is verified on that
// first read and indexed, so later Gets of it touch no file; a Put of
// the fingerprint drops it from the index. A missing file or a schema
// mismatch is a plain miss. A defective entry — undecodable envelope or
// checksum-mismatched artifact — is quarantined (see the type comment)
// and also reads as a miss: the caller re-runs the job and the fresh Put
// overwrites the address.
func (c *Cache) Get(fp string) ([]byte, bool) {
	c.mu.Lock()
	if p, ok := c.pending[fp]; ok {
		art := bytes.Clone(p.artifact)
		c.mu.Unlock()
		return art, true
	}
	if art, ok := c.index[fp]; ok {
		c.mu.Unlock()
		return bytes.Clone(art), true
	}
	puts := c.puts
	c.mu.Unlock()
	data, err := os.ReadFile(c.path(fp))
	if err != nil {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		c.quarantine(fp, "undecodable envelope")
		return nil, false
	}
	if e.Schema != c.schema() {
		return nil, false
	}
	sum := sha256.Sum256(e.Artifact)
	if hex.EncodeToString(sum[:]) != e.Sum {
		c.quarantine(fp, "artifact checksum mismatch")
		return nil, false
	}
	c.mu.Lock()
	// A Put during the read may have replaced what was read; index only
	// an entry no Put has overtaken.
	if c.puts == puts {
		c.indexLocked(fp, e.Artifact)
	}
	c.mu.Unlock()
	return bytes.Clone(e.Artifact), true
}

// indexLocked adds a verified artifact to the index, clearing the index
// first when the artifact would take it past indexCapBytes. c.mu is held.
func (c *Cache) indexLocked(fp string, art []byte) {
	if len(art) > indexCapBytes {
		return
	}
	c.unindexLocked(fp)
	if c.indexBytes+len(art) > indexCapBytes {
		c.index, c.indexBytes = nil, 0
	}
	if c.index == nil {
		c.index = map[string][]byte{}
	}
	c.index[fp] = art
	c.indexBytes += len(art)
}

// unindexLocked drops a fingerprint from the index. c.mu is held.
func (c *Cache) unindexLocked(fp string) {
	if art, ok := c.index[fp]; ok {
		delete(c.index, fp)
		c.indexBytes -= len(art)
	}
}

// quarantine moves a defective entry into the corrupt/ subdirectory,
// bumps the corruption counter, and emits one structured warning. If the
// move fails the file is left where it is (the next Put overwrites it);
// the counter and warning still fire so the defect is never silent.
func (c *Cache) quarantine(fp, reason string) {
	c.corrupt.Add(1)
	ev := corruptionEvent{Fingerprint: fp, Reason: reason}
	dst := filepath.Join(c.Dir, CorruptDirName, fp+".json")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err == nil {
		if err := os.Rename(c.path(fp), dst); err == nil {
			ev.Quarantined = dst
		}
	}
	if c.warn != nil {
		c.warn(ev)
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		line = []byte(fmt.Sprintf("%+v", ev))
	}
	fmt.Fprintf(os.Stderr, "runner: cache entry quarantined: %s\n", line)
}

// Put stores the artifact under the fingerprint and drops the
// fingerprint from the index. It is write-behind: the artifact is held in
// memory as pending, Get answers it from there, and the write runs on a
// goroutine of its own. Put returns once the entry is pending, so its
// error is always nil; a failed write surfaces at Flush. Put keeps its
// own copy of artifact.
//
// At most maxPendingWrites fingerprints are pending at once; a Put of a
// new fingerprint past that bound blocks until a write finishes, so a
// stalled disk stalls the caller as a synchronous write would. A Put of a
// fingerprint already pending replaces the pending artifact without
// blocking, and the write in flight for it then writes again, so the
// entry that lands is always the one from the last Put.
//
// The write itself is write-to-temp, fsync, rename into place, fsync the
// directory. The rename makes a concurrent reader see either the old
// entry or the complete new one; the two fsyncs make the same guarantee
// hold across a power cut or a killed daemon — without them a crash
// shortly after the rename could surface a renamed-but-empty file, which
// the quarantine path would then eat on restart as corruption that never
// really happened. A kill loses at most the pending entries, and each of
// them reads as a plain miss.
func (c *Cache) Put(fp string, key Key, artifact []byte) error {
	art := bytes.Clone(artifact)
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.pending[fp] == nil && len(c.pending) >= maxPendingWrites {
		c.landed.Wait()
	}
	// The artifact is visible from here on: a Get whose disk read began
	// earlier must not index what it read.
	c.puts++
	c.unindexLocked(fp)
	if p := c.pending[fp]; p != nil {
		// The write in flight for fp lands this artifact next.
		p.key, p.artifact = key, art
		p.gen++
		return nil
	}
	if c.pending == nil {
		c.pending = map[string]*pendingPut{}
		c.landed = sync.NewCond(&c.mu)
	}
	p := &pendingPut{key: key, artifact: art}
	c.pending[fp] = p
	go c.land(fp, p)
	return nil
}

// Flush waits until no write is pending and returns the first write
// error since the previous Flush (nil when every write landed).
func (c *Cache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.settleLocked()
	err := c.err
	c.err = nil
	return err
}

// settle waits until no write is pending, leaving any write error for
// the cache owner's Flush.
func (c *Cache) settle() {
	c.mu.Lock()
	c.settleLocked()
	c.mu.Unlock()
}

func (c *Cache) settleLocked() {
	for len(c.pending) > 0 {
		c.landed.Wait()
	}
}

// land writes a pending entry, writes it again for as long as a newer Put
// replaced it during the write, then retires it. Writes of one
// fingerprint therefore never overlap, and the last Put's lands last.
func (c *Cache) land(fp string, p *pendingPut) {
	c.mu.Lock()
	for {
		gen, key, art := p.gen, p.key, p.artifact
		c.mu.Unlock()
		err := c.write(fp, key, art)
		c.mu.Lock()
		if err != nil && c.err == nil {
			c.err = err
		}
		if p.gen == gen {
			break
		}
	}
	delete(c.pending, fp)
	c.landed.Broadcast()
	c.mu.Unlock()
}

// write lands one entry on disk: encode, temp file, fsync, rename,
// directory fsync.
func (c *Cache) write(fp string, key Key, artifact []byte) error {
	sum := sha256.Sum256(artifact)
	e := entry{
		Schema:   c.schema(),
		Key:      key.String(),
		Sum:      hex.EncodeToString(sum[:]),
		Artifact: artifact,
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("runner: encoding cache entry: %w", err)
	}
	path := c.path(fp)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+fp+".tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if c.beforeRename != nil {
		c.beforeRename(fp, tmp.Name())
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that refuse directory fsync (some network mounts) degrade
// to the pre-fsync durability instead of failing the Put.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
