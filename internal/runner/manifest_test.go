package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"starvation/internal/guard"
)

// TestManifestRoundTrip checks Record→Load preserves outcomes, including
// the structured error of a failed job.
func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := LoadManifest(path)
	if len(m.jobs) != 0 {
		t.Fatalf("fresh manifest has %d entries", len(m.jobs))
	}
	if err := m.Record("F1", "aaaa", StatusDone, nil, 1, nil); err != nil {
		t.Fatalf("Record: %v", err)
	}
	rerr := &guard.RunError{Scenario: "F3", Kind: guard.KindDeadline, Msg: "too slow"}
	hist := []AttemptError{
		{Attempt: 1, Kind: guard.KindDeadline, Msg: "too slow"},
		{Attempt: 2, Kind: guard.KindDeadline, Msg: "too slow"},
	}
	if err := m.Record("F3", "bbbb", statusFailed, rerr, 2, hist); err != nil {
		t.Fatalf("Record: %v", err)
	}

	re := LoadManifest(path)
	if !re.Done("F1", "aaaa") {
		t.Errorf("F1 not resumable after reload")
	}
	if re.Done("F1", "cccc") {
		t.Errorf("F1 resumable under a different fingerprint: config changes must re-run")
	}
	if re.Done("F3", "bbbb") {
		t.Errorf("failed job reported resumable")
	}
	e, ok := re.Entry("F3")
	if !ok || e.Err == nil || e.Err.Kind != guard.KindDeadline {
		t.Errorf("F3 entry = %+v, %v; want preserved deadline error", e, ok)
	}
	if e.Attempts != 2 || len(e.History) != 2 || e.History[1].Attempt != 2 {
		t.Errorf("F3 attempt history = attempts %d history %+v; want 2 attempts with full history", e.Attempts, e.History)
	}
}

// TestManifestTornFile checks an interrupted flush (half-written JSON)
// degrades to an empty manifest rather than blocking resumption.
func TestManifestTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(path, []byte(`{"schema":1,"jobs":{"F1":{"fing`), 0o644); err != nil {
		t.Fatal(err)
	}
	m := LoadManifest(path)
	if len(m.jobs) != 0 {
		t.Errorf("torn manifest yielded %d entries, want 0", len(m.jobs))
	}
}

// TestPoolResume is the end-to-end resumable-batch test: a batch is
// interrupted partway (simulated by cancelling after two completions),
// and the re-run executes only the jobs the manifest+cache do not cover.
func TestPoolResume(t *testing.T) {
	dir := t.TempDir()
	cache := &Cache{Dir: filepath.Join(dir, "cache")}
	maniPath := filepath.Join(dir, "manifest.json")

	var bodyRuns atomic.Int64
	mkJobs := func() []Job {
		jobs := make([]Job, 6)
		for i := range jobs {
			i := i
			jobs[i] = Job{
				ID:  fmt.Sprintf("sec%d", i),
				Key: Key{Kind: "resume-test", Scenario: fmt.Sprintf("sec%d", i)},
				Run: func(ctx context.Context) ([]byte, error) {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					bodyRuns.Add(1)
					return []byte(fmt.Sprintf("artifact-%d", i)), nil
				},
			}
		}
		return jobs
	}

	// First batch: cancel after the second completion — an interrupt.
	ctx, cancel := context.WithCancel(context.Background())
	var completions atomic.Int64
	p1 := &Pool{
		Jobs:     1,
		Cache:    cache,
		Manifest: LoadManifest(maniPath),
		Progress: func(ev ProgressEvent) {
			if ev.Kind == ProgressDone && completions.Add(1) == 2 {
				cancel()
			}
		},
	}
	p1.Run(ctx, mkJobs())
	interrupted := bodyRuns.Load()
	if interrupted >= 6 {
		t.Fatalf("interrupt did not interrupt: %d bodies ran", interrupted)
	}

	// Resumed batch: only the incomplete jobs may execute.
	p2 := &Pool{Jobs: 1, Cache: cache, Manifest: LoadManifest(maniPath)}
	results := p2.Run(context.Background(), mkJobs())
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("resumed job %d failed: %v", i, r.Err)
		}
		if want := fmt.Sprintf("artifact-%d", i); string(r.Artifact) != want {
			t.Errorf("resumed job %d artifact %q, want %q", i, r.Artifact, want)
		}
	}
	total := bodyRuns.Load()
	if executed := total - interrupted; executed != 6-interrupted {
		t.Errorf("resume executed %d bodies, want exactly the %d incomplete ones",
			executed, 6-interrupted)
	}
	st := p2.Stats()
	if st.CacheHits != interrupted || st.Executed != 6-interrupted {
		t.Errorf("resume stats = %+v, want %d hits %d executed", st, interrupted, 6-interrupted)
	}

	// Third run: a fully warm batch restores everything.
	p3 := &Pool{Jobs: 4, Cache: cache, Manifest: LoadManifest(maniPath)}
	p3.Run(context.Background(), mkJobs())
	if bodyRuns.Load() != total {
		t.Errorf("warm batch re-simulated jobs")
	}
	if st := p3.Stats(); st.CacheHits != 6 {
		t.Errorf("warm stats = %+v, want 6 cache hits", st)
	}
}

// TestManifestConcurrentRecordsLand is the regression test for lost
// records: concurrent Records into one manifest (a service batch's
// workers) must all reach the file, whatever order they interleave in.
func TestManifestConcurrentRecordsLand(t *testing.T) {
	const trials, writers, perWriter = 200, 4, 2
	dir := t.TempDir()
	for trial := 0; trial < trials; trial++ {
		path := filepath.Join(dir, fmt.Sprintf("manifest-%d.json", trial))
		m := LoadManifest(path)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if err := m.Record(fmt.Sprintf("w%d-%d", w, i), "ffff", StatusDone, nil, 1, nil); err != nil {
						t.Errorf("Record: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		re := LoadManifest(path)
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				if id := fmt.Sprintf("w%d-%d", w, i); !re.Done(id, "ffff") {
					t.Fatalf("trial %d: entry %s lost on disk (%d of %d reloaded)", trial, id, len(re.jobs), writers*perWriter)
				}
			}
		}
	}
}

// journalFixture builds a manifest file of a snapshot followed by lines,
// two of which override snapshot entries. It returns the file, the byte
// offset at which each record's encoding ends (snapshot entries first,
// then lines, in replay order), and the records themselves.
func journalFixture(t *testing.T) (data []byte, ends []int, ids []string, entries []ManifestEntry) {
	t.Helper()
	snap := map[string]ManifestEntry{
		"A": {Fingerprint: "aaaa", Status: StatusDone, Attempts: 1},
		"B": {Fingerprint: "bbbb", Status: StatusDone, Attempts: 2,
			History: []AttemptError{{Attempt: 1, Kind: guard.KindDeadline, Msg: "slow"}}},
	}
	head, err := json.MarshalIndent(manifestFile{Schema: SchemaVersion, Jobs: snap}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot's entries end where the salvage walk finishes decoding
	// each one.
	dec := json.NewDecoder(bytes.NewReader(head))
	for tok, _ := dec.Token(); tok != "jobs"; tok, _ = dec.Token() {
	}
	dec.Token() // the jobs object's '{'
	for dec.More() {
		tok, _ := dec.Token()
		var e ManifestEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		ids, entries, ends = append(ids, tok.(string)), append(entries, e), append(ends, int(dec.InputOffset()))
	}
	data = append(head, '\n')
	for _, l := range []struct {
		id string
		e  ManifestEntry
	}{
		{"C", ManifestEntry{Fingerprint: "cccc", Status: StatusDone, Attempts: 1}},
		{"A", ManifestEntry{Fingerprint: "a2a2", Status: StatusDone}},
		{"D", ManifestEntry{Fingerprint: "dddd", Status: statusFailed, Attempts: 3,
			Err: &guard.RunError{Scenario: "D", Kind: "panic", Msg: "boom"}}},
		{"B", ManifestEntry{Fingerprint: "bbbb", Status: statusFailed, Attempts: 1,
			Err: &guard.RunError{Scenario: "B", Kind: guard.KindDeadline, Msg: "slow"}}},
	} {
		line, err := json.Marshal(journalLine{ID: &l.id, Entry: &l.e})
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, line...)
		ids, entries, ends = append(ids, l.id), append(entries, l.e), append(ends, len(data))
		data = append(data, '\n')
	}
	return data, ends, ids, entries
}

// TestManifestTornJournal cuts a snapshot-plus-lines manifest at every
// byte offset: LoadManifest must recover exactly the records complete
// before the cut, later lines winning, report damage inside a line, and
// a following Record must land alongside everything recovered.
func TestManifestTornJournal(t *testing.T) {
	data, ends, ids, entries := journalFixture(t)
	snapEnd := bytes.Index(data, []byte("\n{\"id\"")) // the snapshot's closing newline
	path := filepath.Join(t.TempDir(), "manifest.json")
	for cut := 0; cut <= len(data); cut++ {
		want := map[string]ManifestEntry{}
		for i, end := range ends {
			if end <= cut {
				want[ids[i]] = entries[i]
			}
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m := LoadManifest(path)
		if !reflect.DeepEqual(m.jobs, want) {
			t.Fatalf("cut at %d of %d: recovered %v, want %v", cut, len(data), m.jobs, want)
		}
		// Damage inside a journal line is disclosed; a cut on a line
		// boundary is a clean (shorter) journal.
		if cut > snapEnd {
			start := bytes.LastIndexByte(data[:cut], '\n') + 1
			end := start + bytes.IndexByte(data[start:], '\n')
			if torn := cut > start && cut < end; torn != (m.RecoveredFrom != "") {
				t.Errorf("cut at %d (line %d..%d): RecoveredFrom %q", cut, start, end, m.RecoveredFrom)
			}
		}
		if err := m.Record("probe", "eeee", StatusDone, nil, 1, nil); err != nil {
			t.Fatalf("cut at %d: Record: %v", cut, err)
		}
		want["probe"] = ManifestEntry{Fingerprint: "eeee", Status: StatusDone, Attempts: 1}
		if re := LoadManifest(path); !reflect.DeepEqual(re.jobs, want) || re.RecoveredFrom != "" {
			t.Fatalf("cut at %d: after Record reloaded %v (%q), want %v", cut, re.jobs, re.RecoveredFrom, want)
		}
	}
}

// TestManifestJournalFold checks the on-disk shape: Records append one
// line each after the first snapshot, and Compact folds them into exactly
// the bytes a whole-map snapshot has — the form a finished batch leaves.
func TestManifestJournalFold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := LoadManifest(path)
	for i := 0; i < 8; i++ {
		if err := m.Record(fmt.Sprintf("seed-%d", i), "ffff", StatusDone, nil, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Record("seed-3", "ffff", statusFailed, &guard.RunError{Scenario: "seed-3", Kind: "panic", Msg: "x"}, 2, nil)
	journal, _ := os.ReadFile(path)
	if lines := bytes.Count(journal, []byte(`{"id":`)); lines != 8 {
		t.Errorf("manifest after 9 Records holds %d journal lines, want 8 (the first Record writes the snapshot)", lines)
	}
	if _, err := m.Compact(8); err != nil {
		t.Fatal(err)
	}
	folded, _ := os.ReadFile(path)
	want, err := json.MarshalIndent(manifestFile{Schema: SchemaVersion, Jobs: m.jobs}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(folded) != string(want)+"\n" {
		t.Errorf("folded manifest is not the bare snapshot:\n%s", folded)
	}
	if e, _ := LoadManifest(path).Entry("seed-3"); e.Status != statusFailed {
		t.Errorf("fold lost the later record: seed-3 = %+v", e)
	}
	// Nothing appended since the fold: Compact leaves the file alone (a
	// rewrite would rename a new file into place).
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Compact(8); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(path); err != nil || !os.SameFile(before, after) {
		t.Errorf("Compact rewrote an already-folded manifest (%v)", err)
	}
}

// TestManifestRestoreHeldUntilCompact checks a cache-hit Execute writes no
// manifest file: the restored outcome is held in memory, and the batch's
// closing Compact persists it as a bare snapshot with no journal line.
func TestManifestRestoreHeldUntilCompact(t *testing.T) {
	dir := t.TempDir()
	pool := &Pool{Cache: &Cache{Dir: filepath.Join(dir, "cache")}}
	t.Cleanup(func() { pool.Cache.Flush() })
	job := Job{ID: "a", Key: Key{Kind: "restore-test", Scenario: "a"},
		Run: func(context.Context) ([]byte, error) { return []byte("artifact-a"), nil }}
	if res := pool.Execute(context.Background(), Exec{Job: job}); res.Err != nil {
		t.Fatalf("warming Execute: %+v", res)
	}
	fp := pool.Cache.Fingerprint(job.Key)

	path := filepath.Join(dir, "manifest.json")
	m := LoadManifest(path)
	if res := pool.Execute(context.Background(), Exec{Job: job, Manifest: m}); !res.Cached {
		t.Fatalf("Execute on a warm cache did not restore: %+v", res)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a restore wrote the manifest file (stat: %v)", err)
	}
	if !m.Done("a", fp) {
		t.Fatalf("restore not recorded in memory")
	}
	if _, err := m.Compact(8); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("Compact did not persist the restore: %v", err)
	}
	if bytes.Contains(data, []byte(`{"id":`)) {
		t.Errorf("compacted manifest holds journal lines:\n%s", data)
	}
	if e, ok := LoadManifest(path).Entry("a"); !ok || e.Status != StatusDone || e.Fingerprint != fp || e.Attempts != 0 {
		t.Errorf("persisted restore = %+v, %v; want done under %s with 0 attempts", e, ok, fp)
	}

	// On a manifest whose file exists, a restore leaves its bytes alone.
	m2 := LoadManifest(path)
	job.ID = "a2"
	pool.Execute(context.Background(), Exec{Job: job, Manifest: m2})
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Errorf("a restore changed an existing manifest file:\n%s", after)
	}
}

// TestManifestRecordAfterRestore checks an executed outcome after a
// restore still appends exactly its own journal line, and the next
// Compact holds both entries.
func TestManifestRecordAfterRestore(t *testing.T) {
	dir := t.TempDir()
	pool := &Pool{Cache: &Cache{Dir: filepath.Join(dir, "cache")}}
	t.Cleanup(func() { pool.Cache.Flush() })
	mk := func(id string) Job {
		return Job{ID: id, Key: Key{Kind: "restore-test", Scenario: id},
			Run: func(context.Context) ([]byte, error) { return []byte("artifact-" + id), nil }}
	}
	pool.Execute(context.Background(), Exec{Job: mk("a")}) // warms the cache

	path := filepath.Join(dir, "manifest.json")
	m := LoadManifest(path)
	if err := m.Record("x", "ffff", StatusDone, nil, 1, nil); err != nil { // the snapshot
		t.Fatal(err)
	}
	if res := pool.Execute(context.Background(), Exec{Job: mk("a"), Manifest: m}); !res.Cached {
		t.Fatalf("a not restored: %+v", res)
	}
	if res := pool.Execute(context.Background(), Exec{Job: mk("b"), Manifest: m}); res.Cached || res.Err != nil {
		t.Fatalf("b not executed: %+v", res)
	}
	data, _ := os.ReadFile(path)
	if n := bytes.Count(data, []byte(`{"id":`)); n != 1 || !bytes.Contains(data, []byte(`{"id":"b"`)) {
		t.Errorf("manifest after restore a + execute b holds %d journal lines, want exactly b's:\n%s", n, data)
	}
	if _, err := m.Compact(8); err != nil {
		t.Fatal(err)
	}
	re := LoadManifest(path)
	for id, attempts := range map[string]int{"x": 1, "a": 0, "b": 1} {
		if e, ok := re.Entry(id); !ok || e.Status != StatusDone || e.Attempts != attempts {
			t.Errorf("compacted entry %s = %+v, %v; want done with %d attempts", id, e, ok, attempts)
		}
	}
	if data, _ := os.ReadFile(path); bytes.Contains(data, []byte(`{"id":`)) {
		t.Errorf("compacted manifest holds journal lines:\n%s", data)
	}
}
