package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestCacheHitMiss covers the basic contract: a miss before Put, a
// byte-exact hit after, and independence of distinct keys.
func TestCacheHitMiss(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	k1 := referenceKey()
	k2 := referenceKey()
	k2.Seed = 3
	fp1, fp2 := c.Fingerprint(k1), c.Fingerprint(k2)

	if _, ok := c.Get(fp1); ok {
		t.Fatalf("hit on empty cache")
	}
	art := []byte(`{"rows":[1,2,3]}`)
	if err := c.Put(fp1, k1, art); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, ok := c.Get(fp1)
	if !ok || !bytes.Equal(got, art) {
		t.Fatalf("Get after Put = %q, %v; want %q, true", got, ok, art)
	}
	if _, ok := c.Get(fp2); ok {
		t.Fatalf("different seed hit the same entry")
	}
}

// TestCacheSchemaBump walks an entry across a cache-schema version bump:
// written under schema 1 it must miss under schema 2 (the address
// changes AND the envelope check rejects), and re-populating under 2
// must not resurrect the schema-1 artifact.
func TestCacheSchemaBump(t *testing.T) {
	dir := t.TempDir()
	v1 := &Cache{Dir: dir, schemaOverride: 1}
	v2 := &Cache{Dir: dir, schemaOverride: 2}
	k := referenceKey()

	oldArt := []byte("schema-1 artifact")
	if err := v1.Put(v1.Fingerprint(k), k, oldArt); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := v1.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, ok := v2.Get(v2.Fingerprint(k)); ok {
		t.Fatalf("schema-2 cache hit a schema-1 entry")
	}
	// Defense in depth: even reading the schema-1 address through the
	// schema-2 cache must miss on the envelope's embedded version.
	if _, ok := v2.Get(v1.Fingerprint(k)); ok {
		t.Fatalf("schema-2 cache accepted a schema-1 envelope")
	}

	newArt := []byte("schema-2 artifact")
	if err := v2.Put(v2.Fingerprint(k), k, newArt); err != nil {
		t.Fatalf("Put under schema 2: %v", err)
	}
	if err := v2.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got, ok := v2.Get(v2.Fingerprint(k)); !ok || !bytes.Equal(got, newArt) {
		t.Fatalf("schema-2 Get = %q, %v; want %q, true", got, ok, newArt)
	}
	if got, ok := v1.Get(v1.Fingerprint(k)); !ok || !bytes.Equal(got, oldArt) {
		t.Fatalf("schema-1 entry damaged by the bump: %q, %v", got, ok)
	}
}

// TestCacheCorruption mangles stored entries several ways and checks
// every defect reads as a miss — the cache must fall back to re-running,
// never return bad data.
func TestCacheCorruption(t *testing.T) {
	k := referenceKey()
	art := []byte("pristine artifact bytes")
	corruptions := []struct {
		name   string
		mangle func(path string) error
	}{
		{"truncated", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)/2], 0o644)
		}},
		{"bitflip-in-artifact", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			// Flip a byte inside the base64 artifact payload.
			i := bytes.Index(data, []byte(`"artifact":"`)) + len(`"artifact":"`) + 3
			data[i] ^= 0x01
			return os.WriteFile(p, data, 0o644)
		}},
		{"not-json", func(p string) error {
			return os.WriteFile(p, []byte("<html>quota exceeded</html>"), 0o644)
		}},
		{"empty", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			c := &Cache{Dir: t.TempDir()}
			fp := c.Fingerprint(k)
			if err := c.Put(fp, k, art); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := c.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if err := tc.mangle(filepath.Join(c.Dir, fp[:2], fp+".json")); err != nil {
				t.Fatalf("mangle: %v", err)
			}
			if got, ok := c.Get(fp); ok {
				t.Fatalf("corrupted entry returned data: %q", got)
			}
			// Re-running overwrites the corpse and the cache heals.
			if err := c.Put(fp, k, art); err != nil {
				t.Fatalf("re-Put over corrupted entry: %v", err)
			}
			if err := c.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if got, ok := c.Get(fp); !ok || !bytes.Equal(got, art) {
				t.Fatalf("cache did not heal: %q, %v", got, ok)
			}
		})
	}
}

// TestCacheIndexVerifiedOnFirstRead: an entry is verified on its first
// read and served from the index after that, so a file damaged later no
// longer reaches a cache that read it intact; a fresh Cache still reads
// the file and quarantines it. A Put after the indexed read is what the
// next Get returns, and the caller's copy is its own.
func TestCacheIndexVerifiedOnFirstRead(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	k := referenceKey()
	fp := c.Fingerprint(k)
	art := []byte("verified artifact bytes")
	if err := c.Put(fp, k, art); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(c.index) != 0 {
		t.Fatalf("Put indexed %d entries; only a verified read may", len(c.index))
	}
	got, ok := c.Get(fp)
	if !ok || !bytes.Equal(got, art) {
		t.Fatalf("first Get = %q, %v; want %q, true", got, ok, art)
	}
	got[0] ^= 0xff // the caller's copy, not the index's

	path := c.path(fp)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"artifact":"`)) + len(`"artifact":"`) + 3
	data[i] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(fp); !ok || !bytes.Equal(got, art) {
		t.Fatalf("second Get = %q, %v; want the bytes verified on the first", got, ok)
	}
	if c.corrupt.Load() != 0 {
		t.Fatal("an indexed Get read the file again")
	}

	fresh := &Cache{Dir: c.Dir}
	got, ok, q := fresh.lookup(fp)
	if ok {
		t.Fatalf("fresh cache served a damaged entry: %q", got)
	}
	if q == nil || q.Quarantined == "" || fresh.corrupt.Load() != 1 {
		t.Fatalf("fresh cache's read of the damaged entry: %+v, want one quarantine", q)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("damaged entry left in place (%v)", err)
	}

	next := []byte("artifact put after the indexed read")
	if err := c.Put(fp, k, next); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, ok := c.Get(fp); !ok || !bytes.Equal(got, next) {
		t.Fatalf("Get while the new Put is pending = %q, %v; want %q", got, ok, next)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got, ok := c.Get(fp); !ok || !bytes.Equal(got, next) {
		t.Fatalf("Get after the new Put landed = %q, %v; want %q", got, ok, next)
	}
}

// TestCacheIndexNotStale: a Get whose disk read overlaps a Put of the
// same fingerprint must not index what it read, or the index would serve
// the older artifact once the newer one lands. One goroutine reads the
// fingerprint in a loop while another puts, flushes and reads it back.
func TestCacheIndexNotStale(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	k := referenceKey()
	fp := c.Fingerprint(k)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				c.Get(fp)
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for round := 0; round < 20; round++ {
		want := fmt.Sprintf("round %d", round)
		if err := c.Put(fp, k, []byte(want)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if got, ok := c.Get(fp); !ok || string(got) != want {
			t.Fatalf("Get after round %d's Put landed = %q, %v", round, got, ok)
		}
	}
}

// checkIndex fails unless the index's byte count is the total length of
// its artifacts and within indexCapBytes.
func checkIndex(t *testing.T, c *Cache) {
	t.Helper()
	total := 0
	for _, art := range c.index {
		total += len(art)
	}
	if total != c.indexBytes || total > indexCapBytes {
		t.Fatalf("index holds %d bytes, counts %d, cap %d", total, c.indexBytes, indexCapBytes)
	}
}

// TestCacheIndexCap: the index never holds more than indexCapBytes. A
// filler entry stands in for a cap's worth of artifacts read earlier (its
// pages are never touched, so the test costs no real memory); the next
// read would pass the cap, so it clears the index and starts it again.
func TestCacheIndexCap(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	const n = 1 << 10
	fps := make([]string, 3)
	for i := range fps {
		k := referenceKey()
		k.Seed = int64(10 + i)
		fps[i] = c.Fingerprint(k)
		if err := c.Put(fps[i], k, bytes.Repeat([]byte{byte('a' + i)}, n)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, ok := c.Get(fps[0]); !ok {
		t.Fatal("miss on a landed entry")
	}
	checkIndex(t, c)

	filler := make([]byte, indexCapBytes-n-n/2)
	c.mu.Lock()
	c.indexLocked("filler", filler)
	c.mu.Unlock()
	checkIndex(t, c)
	if len(c.index) != 2 {
		t.Fatalf("index holds %d entries before the cap, want 2", len(c.index))
	}

	if got, ok := c.Get(fps[1]); !ok || !bytes.Equal(got, bytes.Repeat([]byte{'b'}, n)) {
		t.Fatalf("Get past the cap = %.8q…, %v", got, ok)
	}
	checkIndex(t, c)
	if _, ok := c.index[fps[1]]; len(c.index) != 1 || !ok {
		t.Fatalf("index past the cap holds %d entries; want only the entry just read", len(c.index))
	}
	if _, ok := c.Get(fps[2]); !ok {
		t.Fatal("miss on a landed entry")
	}
	checkIndex(t, c)
	if len(c.index) != 2 || c.indexBytes != 2*n {
		t.Fatalf("index after the restart holds %d entries, %d bytes; want 2, %d", len(c.index), c.indexBytes, 2*n)
	}
}

// heldWrites installs the cache's before-rename hook so every write
// parks, complete and synced but not yet renamed, until released. Each
// parked write reports its fingerprint and temp path on held; send on
// release to let one write finish, close it to let all of them through.
type heldWrites struct {
	held    chan [2]string
	release chan struct{}
}

func holdWrites(c *Cache) *heldWrites {
	// held is buffered past every write a test parks, so the hook never
	// blocks on reporting, only on release.
	h := &heldWrites{held: make(chan [2]string, 4*maxPendingWrites), release: make(chan struct{})}
	c.beforeRename = func(fp, tmp string) {
		h.held <- [2]string{fp, tmp}
		<-h.release
	}
	return h
}

// next waits for the next write to park and returns its fingerprint and
// temp path.
func (h *heldWrites) next(t *testing.T) (string, string) {
	t.Helper()
	select {
	case w := <-h.held:
		return w[0], w[1]
	case <-time.After(10 * time.Second):
		t.Fatal("no write reached the rename")
		return "", ""
	}
}

// TestCacheWriteBehind: a job's result moves on while its cache write is
// still in flight. Execute returns and Get hits from memory; on disk the
// final name does not exist yet and the temp file already holds the whole
// synced entry; once released and flushed, a fresh Cache reads it.
func TestCacheWriteBehind(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	h := holdWrites(c)
	pool := &Pool{Cache: c}
	art := []byte("artifact computed once")
	job := Job{ID: "j", Key: referenceKey(), Run: func(context.Context) ([]byte, error) { return art, nil }}

	res := pool.Execute(context.Background(), Exec{Job: job})
	if res.Err != nil || !bytes.Equal(res.Artifact, art) {
		t.Fatalf("Execute: %+v", res)
	}
	fp, tmp := h.next(t)
	if fp != c.Fingerprint(job.Key) {
		t.Fatalf("held write is for %s, want %s", fp, c.Fingerprint(job.Key))
	}
	if got, ok := c.Get(fp); !ok || !bytes.Equal(got, art) {
		t.Fatalf("Get during the write = %q, %v; want the pending artifact", got, ok)
	}
	if _, err := os.Stat(c.path(fp)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("final path exists before the rename (%v)", err)
	}
	data, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || !bytes.Equal(e.Artifact, art) {
		t.Fatalf("temp file is not the complete entry (%v): %q", err, data)
	}
	if sum := sha256.Sum256(e.Artifact); hex.EncodeToString(sum[:]) != e.Sum {
		t.Fatal("temp file's checksum does not match its artifact")
	}

	close(h.release)
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got, ok := (&Cache{Dir: c.Dir}).Get(fp); !ok || !bytes.Equal(got, art) {
		t.Fatalf("fresh cache after Flush = %q, %v; want the landed entry", got, ok)
	}
}

// TestCachePutBound: with maxPendingWrites writes parked, one more Put of
// a new fingerprint blocks until a write finishes.
func TestCachePutBound(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	h := holdWrites(c)
	put := func(i int) {
		k := referenceKey()
		k.Seed = int64(100 + i)
		if err := c.Put(c.Fingerprint(k), k, []byte(fmt.Sprint(i))); err != nil {
			t.Errorf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < maxPendingWrites; i++ {
		put(i)
	}
	for i := 0; i < maxPendingWrites; i++ {
		h.next(t)
	}
	returned := make(chan struct{})
	go func() {
		put(maxPendingWrites)
		close(returned)
	}()
	select {
	case <-returned:
		t.Fatalf("Put number %d returned with %d writes in flight", maxPendingWrites+1, maxPendingWrites)
	case <-time.After(100 * time.Millisecond):
	}
	h.release <- struct{}{}
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Put stayed blocked after a write finished")
	}
	close(h.release)
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestCachePutOrdered: a second Put of a fingerprint whose first write is
// still in flight is the entry that lands.
func TestCachePutOrdered(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	h := holdWrites(c)
	k := referenceKey()
	fp := c.Fingerprint(k)
	if err := c.Put(fp, k, []byte("A")); err != nil {
		t.Fatal(err)
	}
	h.next(t) // A's write is parked before its rename
	if err := c.Put(fp, k, []byte("B")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(fp); !ok || string(got) != "B" {
		t.Fatalf("Get after the second Put = %q, %v; want B", got, ok)
	}
	close(h.release)
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got, ok := (&Cache{Dir: c.Dir}).Get(fp); !ok || string(got) != "B" {
		t.Fatalf("landed entry = %q, %v; want B", got, ok)
	}
}

// TestCacheConcurrentStress: Put, Get and Flush from many goroutines at
// once (run it under -race). A hit always carries an artifact put for
// that fingerprint, and after the last Flush every fingerprint holds the
// last artifact its owner put, on disk and in the cache's own index.
func TestCacheConcurrentStress(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	const owners, keysEach, rounds = 4, 6, 3
	fps := make([][]string, owners)
	keys := make([][]Key, owners)
	for o := range fps {
		for i := 0; i < keysEach; i++ {
			k := referenceKey()
			k.Scenario = fmt.Sprintf("owner%d", o)
			k.Seed = int64(i)
			keys[o] = append(keys[o], k)
			fps[o] = append(fps[o], c.Fingerprint(k))
		}
	}
	errs := make(chan error, owners) // an owner stops at its first error
	done := make(chan struct{})
	for o := 0; o < owners; o++ {
		go func(o int) {
			defer func() { done <- struct{}{} }()
			for r := 0; r < rounds; r++ {
				for i, fp := range fps[o] {
					if err := c.Put(fp, keys[o][i], []byte(fmt.Sprintf("%s/%d", fp, r))); err != nil {
						errs <- err
						return
					}
					// Read a neighbour's fingerprint too.
					other := fps[(o+1)%owners][i]
					if got, ok := c.Get(other); ok && !bytes.HasPrefix(got, []byte(other+"/")) {
						errs <- fmt.Errorf("Get(%s) returned %q", other, got)
						return
					}
				}
				if r == 1 {
					if err := c.Flush(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(o)
	}
	for o := 0; o < owners; o++ {
		<-done
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// The cache that served the run's reads holds no stale index entry.
	fresh := &Cache{Dir: c.Dir}
	for o := range fps {
		for _, fp := range fps[o] {
			want := fmt.Sprintf("%s/%d", fp, rounds-1)
			if got, ok := fresh.Get(fp); !ok || string(got) != want {
				t.Errorf("%s landed as %q, %v; want %q", fp, got, ok, want)
			}
			if got, ok := c.Get(fp); !ok || string(got) != want {
				t.Errorf("%s served as %q, %v after the last Flush; want %q", fp, got, ok, want)
			}
		}
	}
}
