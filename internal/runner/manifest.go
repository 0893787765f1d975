package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"starvation/internal/guard"
)

// JobStatus is the terminal state of a job in a batch manifest.
type JobStatus string

const (
	// StatusDone: the job produced an artifact (freshly or from cache).
	StatusDone JobStatus = "done"
	// statusFailed: the job panicked, errored, or blew its deadline.
	statusFailed JobStatus = "failed"
)

// ManifestEntry records the outcome of one job.
type ManifestEntry struct {
	// Fingerprint is the job's content address at completion time; a
	// later batch re-runs the job when its fingerprint differs (the
	// configuration changed) even though the ID matches.
	Fingerprint string    `json:"fingerprint"`
	Status      JobStatus `json:"status"`
	// Attempts counts body executions behind this outcome (0 when the
	// artifact came straight from the cache).
	Attempts int `json:"attempts,omitempty"`
	// History lists the failed attempts the retry policy absorbed before
	// this outcome; it survives resume so a flaky section stays visible
	// after the batch completes.
	History []AttemptError `json:"history,omitempty"`
	// HistoryDropped counts absorbed-failure records Compact trimmed from
	// History, so a compacted manifest still discloses how flaky the job
	// has been over its lifetime.
	HistoryDropped int `json:"history_dropped,omitempty"`
	// Err carries the structured failure when Status is "failed".
	Err *guard.RunError `json:"err,omitempty"`
}

// manifestFile is the snapshot form of a Manifest: the whole job map.
type manifestFile struct {
	Schema int                      `json:"schema"`
	Jobs   map[string]ManifestEntry `json:"jobs"`
}

// journalLine is one record appended after the snapshot. Lines replay in
// file order, so a later line for an ID overrides an earlier one and the
// snapshot's entry.
type journalLine struct {
	ID    *string        `json:"id"`
	Entry *ManifestEntry `json:"entry"`
}

// Manifest is the resumable-batch record: one entry per completed job,
// with every executed or failed outcome persisted as it happens so an
// interrupted batch can be resumed. A re-run treats "done with matching
// fingerprint" as restorable (the artifact comes from the cache) and
// executes only missing, failed, or changed jobs.
//
// On disk the manifest is a snapshot — the {"schema":…,"jobs":{…}} object
// — followed by zero or more one-line journal records {"id":…,"entry":{…}}.
// Record appends one line per outcome instead of rewriting the whole map;
// Compact folds the journal back into a bare snapshot, so a finished batch
// leaves only the snapshot behind. An outcome restored from the cache is
// held in memory until the next snapshot: it is derivable, since a job a
// crash left unrecorded is re-queued and restores again from the same
// cache entry without simulating.
type Manifest struct {
	// Path is the manifest file; empty disables persistence (the
	// manifest still tracks state in memory).
	Path string
	// RecoveredFrom describes the salvage LoadManifest performed when the
	// file on disk was truncated or corrupt: how many complete entries it
	// recovered and from how many bytes. Empty for a cleanly parsed (or
	// absent) manifest. Diagnostic only — the next Record rewrites the
	// file whole.
	RecoveredFrom string

	mu   sync.Mutex
	jobs map[string]ManifestEntry
	// appendable: the file ends in a snapshot or journal line this
	// manifest read or wrote whole, so Record may append to it. False for
	// a missing, damaged or foreign file and after a failed write; Record
	// then rewrites the file whole.
	appendable bool
	// journaled: lines follow the file's snapshot; Compact folds them.
	journaled bool
	// dirty: the job map holds restored outcomes no write has persisted
	// yet; Compact snapshots them.
	dirty bool
}

// LoadManifest reads the manifest at path: its snapshot, then every
// journal line in order. A missing file yields an empty manifest. A
// truncated or corrupt file — a torn write during an interrupt, a
// chaos-injected truncation — is salvaged record by record: every job
// record that decodes completely is recovered (those jobs resume from
// cache), the damage is noted in RecoveredFrom, and only the incomplete
// trailing record is lost and re-runs. A torn snapshot is salvaged entry
// by entry; a torn journal keeps every line before the damage.
func LoadManifest(path string) *Manifest {
	m := &Manifest{Path: path, jobs: map[string]ManifestEntry{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return m
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var f manifestFile
	if err := dec.Decode(&f); err != nil {
		if jobs, ok := recoverManifest(data); ok {
			m.jobs = jobs
			m.noteRecovery(len(data))
		}
		return m
	}
	if f.Schema != SchemaVersion {
		return m // a different schema's outcomes don't resume this one
	}
	if f.Jobs != nil {
		m.jobs = f.Jobs
	}
	tail := data[dec.InputOffset():]
	m.journaled = len(bytes.TrimSpace(tail)) > 0
	if !m.replay(tail) {
		m.noteRecovery(len(data))
		return m
	}
	m.appendable = data[len(data)-1] == '\n'
	return m
}

// replay applies the journal lines after the snapshot in file order. It
// stops at the first line that is not a complete record — a torn or
// foreign tail — and reports whether every line applied.
func (m *Manifest) replay(tail []byte) bool {
	for len(tail) > 0 {
		var line []byte
		line, tail, _ = bytes.Cut(tail, []byte{'\n'})
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var l journalLine
		if err := json.Unmarshal(line, &l); err != nil || l.ID == nil || l.Entry == nil {
			return false
		}
		m.jobs[*l.ID] = *l.Entry
	}
	return true
}

func (m *Manifest) noteRecovery(size int) {
	n := len(m.jobs)
	m.RecoveredFrom = fmt.Sprintf("recovered %d complete entr%s from damaged manifest (%d bytes)",
		n, plural(n, "y", "ies"), size)
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// recoverManifest walks the token stream of a damaged manifest file and
// collects every job entry that decodes completely before the damage.
// It reports ok=false when the bytes don't even begin as this manifest's
// schema — arbitrary garbage recovers nothing.
func recoverManifest(data []byte) (map[string]ManifestEntry, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, false
	}
	jobs := map[string]ManifestEntry{}
	sawSchema := false
fields:
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		key, isKey := tok.(string)
		if !isKey {
			break // the object's closing '}' (or damage)
		}
		switch key {
		case "schema":
			var v int
			if err := dec.Decode(&v); err != nil || v != SchemaVersion {
				return nil, false
			}
			sawSchema = true
		case "jobs":
			if !sawSchema {
				// Schema unseen: these entries may belong to an
				// incompatible version; refuse to resume from them.
				return nil, false
			}
			if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
				return jobs, true
			}
			for {
				tok, err := dec.Token()
				if err != nil {
					return jobs, true
				}
				id, isID := tok.(string)
				if !isID {
					break // jobs object closed cleanly
				}
				var e ManifestEntry
				if err := dec.Decode(&e); err != nil {
					// The entry the damage fell in: drop it, keep the rest.
					return jobs, true
				}
				jobs[id] = e
			}
		default:
			// Unknown field (a future addition): skip its value.
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				break fields
			}
		}
	}
	return jobs, sawSchema
}

// Done reports whether the manifest records the job as completed under
// the same fingerprint — the resume predicate.
func (m *Manifest) Done(id, fp string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.jobs[id]
	return ok && e.Status == StatusDone && e.Fingerprint == fp
}

// Entry returns the recorded outcome of a job.
func (m *Manifest) Entry(id string) (ManifestEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.jobs[id]
	return e, ok
}

// Record stores a job outcome — including its attempt count and the
// failed attempts the retry policy absorbed — and persists it by
// appending one journal line to the manifest file. The file is rewritten
// whole instead when it was missing, damaged or foreign at load, or when
// an append fails. The write happens under the manifest's lock, so the
// file's record order is the call order. Write errors are returned but
// the in-memory record is kept either way: a read-only filesystem
// degrades resume, not the batch itself.
func (m *Manifest) Record(id, fp string, status JobStatus, rerr *guard.RunError, attempts int, history []AttemptError) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jobs == nil {
		m.jobs = map[string]ManifestEntry{}
	}
	// A re-run of a previously compacted job carries the disclosed drop
	// count forward instead of silently resetting the history ledger.
	dropped := m.jobs[id].HistoryDropped
	e := ManifestEntry{Fingerprint: fp, Status: status, Attempts: attempts, History: history, HistoryDropped: dropped, Err: rerr}
	m.jobs[id] = e
	if m.Path == "" {
		return nil
	}
	if m.appendable {
		line, err := json.Marshal(journalLine{ID: &id, Entry: &e})
		if err != nil {
			return err
		}
		if m.appendLine(line) == nil {
			m.journaled = true
			return nil
		}
		// The failed append may have left a torn line: rewrite whole.
		m.appendable = false
	}
	return m.snapshot()
}

// restored records a job restored from the cache in memory only, unless
// the manifest already says done under fp (a resumed batch keeps the
// original attempt history). The next snapshot — Compact at the batch's
// end, or Record's whole-file rewrite — persists it.
func (m *Manifest) restored(id, fp string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jobs == nil {
		m.jobs = map[string]ManifestEntry{}
	}
	prev, ok := m.jobs[id]
	if ok && prev.Status == StatusDone && prev.Fingerprint == fp {
		return
	}
	m.jobs[id] = ManifestEntry{Fingerprint: fp, Status: StatusDone, HistoryDropped: prev.HistoryDropped}
	m.dirty = true
}

// appendLine appends one journal line to the manifest file. The file must
// already exist: a journal line without its snapshot would not load.
func (m *Manifest) appendLine(line []byte) error {
	f, err := os.OpenFile(m.Path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshot rewrites the manifest file as a bare snapshot of the job map.
// The caller holds m.mu.
func (m *Manifest) snapshot() error {
	data, err := json.MarshalIndent(manifestFile{Schema: SchemaVersion, Jobs: m.jobs}, "", "  ")
	if err == nil {
		err = m.flush(data)
	}
	if err != nil {
		m.appendable = false
		return err
	}
	m.appendable, m.journaled, m.dirty = true, false, false
	return nil
}

// flush writes the serialized manifest with write-then-rename so an
// interrupt mid-flush leaves the previous (still valid) manifest in place.
func (m *Manifest) flush(data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(m.Path), ".manifest.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), m.Path)
}

// Compact trims each entry's absorbed-failure history to its most recent
// keep records and folds the manifest file back into a bare snapshot,
// returning how many records were dropped. A long-running daemon that
// retries flaky jobs for weeks otherwise grows its manifests without
// bound; the trim is disclosed per entry in HistoryDropped, so total
// flakiness stays visible even after the individual records are gone.
// The service's finalize and cmd/figures call Compact when a batch ends,
// so a finished batch's file holds no journal lines and every restored
// outcome. A manifest with no journal lines, no unpersisted restore and
// within the bound is left untouched (no rewrite, returns 0).
func (m *Manifest) Compact(keep int) (int, error) {
	if keep < 0 {
		keep = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	dropped := 0
	for id, e := range m.jobs {
		if len(e.History) <= keep {
			continue
		}
		n := len(e.History) - keep
		e.History = append([]AttemptError(nil), e.History[n:]...)
		e.HistoryDropped += n
		m.jobs[id] = e
		dropped += n
	}
	if m.Path == "" || (dropped == 0 && !m.journaled && !m.dirty) {
		return dropped, nil
	}
	return dropped, m.snapshot()
}
