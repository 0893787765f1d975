package runner

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"starvation/internal/guard"
)

// TestExecuteSharedPool exercises the shared-pool path: independent
// executions share one cache but route progress and manifests privately.
func TestExecuteSharedPool(t *testing.T) {
	dir := t.TempDir()
	pool := &Pool{Cache: &Cache{Dir: filepath.Join(dir, "cache")}}

	runs := 0
	job := Job{
		ID:  "shared-a",
		Key: Key{Kind: "exec-test", Scenario: "a"},
		Run: func(ctx context.Context) ([]byte, error) {
			runs++
			return []byte("artifact-a"), nil
		},
	}

	var events []ProgressKind
	man := LoadManifest(filepath.Join(dir, "manifest.json"))
	res := pool.Execute(context.Background(), Exec{
		Job:      job,
		Manifest: man,
		Progress: func(ev ProgressEvent) { events = append(events, ev.Kind) },
	})
	if res.Err != nil || string(res.Artifact) != "artifact-a" {
		t.Fatalf("first Execute: %+v", res)
	}
	if runs != 1 {
		t.Fatalf("body ran %d times, want 1", runs)
	}
	if len(events) != 2 || events[0] != ProgressStart || events[1] != ProgressDone {
		t.Fatalf("progress events %v, want [start done]", events)
	}
	fp := pool.Cache.Fingerprint(job.Key)
	if !man.Done("shared-a", fp) {
		t.Fatalf("manifest does not record the execution")
	}
	if err := pool.Cache.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// A second execution — as after a daemon restart — restores from the
	// shared cache without re-running the body.
	res2 := pool.Execute(context.Background(), Exec{Job: job, Manifest: man})
	if !res2.Cached || string(res2.Artifact) != "artifact-a" {
		t.Fatalf("second Execute not served from cache: %+v", res2)
	}
	if runs != 1 {
		t.Fatalf("body re-ran on a warm cache (%d runs)", runs)
	}
	if st := pool.Stats(); st.Executed != 1 || st.CacheHits != 1 {
		t.Fatalf("stats %+v, want executed=1 cacheHits=1", st)
	}
}

// TestExecuteRetryOverride: a per-execution retry policy overrides the
// pool's (here: the pool has none, the Exec brings a budget of 3).
func TestExecuteRetryOverride(t *testing.T) {
	pool := &Pool{}
	attempts := 0
	job := Job{ID: "flaky", Run: func(ctx context.Context) ([]byte, error) {
		attempts++
		if attempts < 3 {
			return nil, fmt.Errorf("transient %d", attempts)
		}
		return []byte("ok"), nil
	}}
	res := pool.Execute(context.Background(), Exec{
		Job:   job,
		Retry: &RetryPolicy{MaxAttempts: 3, Base: 1},
	})
	if res.Err != nil || string(res.Artifact) != "ok" {
		t.Fatalf("Execute under retry override: %+v", res)
	}
	if res.Attempts != 3 || len(res.History) != 2 {
		t.Fatalf("attempts=%d history=%d, want 3 and 2", res.Attempts, len(res.History))
	}

	// Without the override the pool's zero policy gives a single attempt.
	attempts = 0
	res = pool.Execute(context.Background(), Exec{Job: job})
	if res.Err == nil || attempts != 1 {
		t.Fatalf("zero policy granted retries: attempts=%d err=%v", attempts, res.Err)
	}
}

// TestExecuteConcurrent: many goroutines executing through one pool — the
// serving topology — keep counters and per-call progress routing intact.
func TestExecuteConcurrent(t *testing.T) {
	pool := &Pool{Cache: &Cache{Dir: t.TempDir()}}
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("payload-%d", i)
			mine := 0
			res := pool.Execute(context.Background(), Exec{
				Job: Job{
					ID:  fmt.Sprintf("c%02d", i),
					Key: Key{Kind: "exec-conc", Scenario: fmt.Sprint(i)},
					Run: func(ctx context.Context) ([]byte, error) { return []byte(want), nil },
				},
				Progress: func(ev ProgressEvent) { mine++ },
			})
			if res.Err != nil {
				errs[i] = res.Err
				return
			}
			if string(res.Artifact) != want {
				errs[i] = fmt.Errorf("artifact %q, want %q", res.Artifact, want)
			}
			if mine != 2 {
				errs[i] = fmt.Errorf("saw %d progress events, want 2 (routing leaked across calls)", mine)
			}
		}(i)
	}
	wg.Wait()
	if err := pool.Cache.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("execution %d: %v", i, err)
		}
	}
	if st := pool.Stats(); st.Executed != n {
		t.Fatalf("executed %d, want %d", st.Executed, n)
	}
	if st := pool.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight gauge stuck at %d after drain", st.Inflight)
	}
}

// TestManifestCompact: history beyond the keep bound is trimmed, the trim
// is disclosed, and the compacted file round-trips through LoadManifest.
func TestManifestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := LoadManifest(path)
	long := make([]AttemptError, 7)
	for i := range long {
		long[i] = AttemptError{Attempt: i + 1, Kind: guard.KindError, Msg: fmt.Sprintf("boom %d", i+1)}
	}
	if err := m.Record("flaky", "fp1", StatusDone, nil, 8, long); err != nil {
		t.Fatal(err)
	}
	if err := m.Record("steady", "fp2", StatusDone, nil, 1, nil); err != nil {
		t.Fatal(err)
	}

	dropped, err := m.Compact(2)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 5 {
		t.Fatalf("dropped %d records, want 5", dropped)
	}
	history := 0
	for _, e := range m.jobs {
		history += len(e.History)
	}
	if history != 2 {
		t.Fatalf("history length %d after compact, want 2", history)
	}

	re := LoadManifest(path)
	e, ok := re.Entry("flaky")
	if !ok {
		t.Fatal("compacted manifest lost the entry")
	}
	if len(e.History) != 2 || e.HistoryDropped != 5 {
		t.Fatalf("entry history=%d dropped=%d, want 2 and 5", len(e.History), e.HistoryDropped)
	}
	// The *most recent* attempts survive.
	if e.History[0].Attempt != 6 || e.History[1].Attempt != 7 {
		t.Fatalf("kept attempts %d,%d, want 6,7", e.History[0].Attempt, e.History[1].Attempt)
	}
	if !re.Done("flaky", "fp1") || !re.Done("steady", "fp2") {
		t.Fatal("compaction broke the resume predicate")
	}

	// Already-compact manifests are not rewritten.
	if dropped, err = re.Compact(2); err != nil || dropped != 0 {
		t.Fatalf("second compact: dropped=%d err=%v, want 0 and nil", dropped, err)
	}

	// A later re-run of the job carries the disclosed count forward.
	if err := m.Record("flaky", "fp1b", StatusDone, nil, 1, nil); err != nil {
		t.Fatal(err)
	}
	e, _ = m.Entry("flaky")
	if e.HistoryDropped != 5 {
		t.Fatalf("re-record reset HistoryDropped to %d", e.HistoryDropped)
	}
}
