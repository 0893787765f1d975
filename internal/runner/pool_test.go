package runner

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starvation/internal/guard"
)

func artifactJob(id string, body func(ctx context.Context) ([]byte, error)) Job {
	return Job{ID: id, Run: body}
}

// TestPoolResultOrder checks results come back in input order even when
// completion order is scrambled, and that every artifact lands on its
// own job.
func TestPoolResultOrder(t *testing.T) {
	const n = 16
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = artifactJob(fmt.Sprintf("job%02d", i), func(context.Context) ([]byte, error) {
			// Earlier jobs sleep longer so completion order inverts
			// submission order under parallelism.
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return []byte(fmt.Sprintf("artifact-%02d", i)), nil
		})
	}
	p := &Pool{Jobs: 8}
	results := p.Run(context.Background(), jobs)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.ID != jobs[i].ID {
			t.Errorf("result %d is %q, want %q", i, r.ID, jobs[i].ID)
		}
		if want := fmt.Sprintf("artifact-%02d", i); string(r.Artifact) != want {
			t.Errorf("result %d artifact %q, want %q", i, r.Artifact, want)
		}
	}
	if st := p.Stats(); st.Executed != n || st.Failed != 0 || st.CacheHits != 0 {
		t.Errorf("stats = %+v, want %d executed", st, n)
	}
}

// TestPoolBoundedConcurrency checks no more than Jobs bodies run at once.
func TestPoolBoundedConcurrency(t *testing.T) {
	var cur, max atomic.Int64
	jobs := make([]Job, 20)
	for i := range jobs {
		jobs[i] = artifactJob(fmt.Sprintf("j%d", i), func(context.Context) ([]byte, error) {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil, nil
		})
	}
	p := &Pool{Jobs: 3}
	p.Run(context.Background(), jobs)
	if m := max.Load(); m > 3 {
		t.Errorf("observed %d concurrent jobs, bound is 3", m)
	}
}

// TestPoolPanicCapture checks a panicking job becomes a structured
// RunError and the rest of the batch completes.
func TestPoolPanicCapture(t *testing.T) {
	jobs := []Job{
		artifactJob("fine", func(context.Context) ([]byte, error) { return []byte("ok"), nil }),
		artifactJob("boom", func(context.Context) ([]byte, error) { panic("forced failure") }),
		artifactJob("also-fine", func(context.Context) ([]byte, error) { return []byte("ok2"), nil }),
	}
	p := &Pool{Jobs: 2}
	results := p.Run(context.Background(), jobs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v %v", results[0].Err, results[2].Err)
	}
	e := results[1].Err
	if e == nil || e.Kind != "panic" || e.Scenario != "boom" {
		t.Fatalf("panic job error = %+v, want kind panic scenario boom", e)
	}
	if !strings.Contains(e.Msg, "forced failure") || e.Stack == "" {
		t.Errorf("panic error lost its payload or stack: %+v", e)
	}
}

// TestPoolErrorKinds checks classification of body errors: an ordinary
// error is KindError; a deadline-honoring job cut short by JobDeadline is
// KindDeadline.
func TestPoolErrorKinds(t *testing.T) {
	jobs := []Job{
		artifactJob("io-error", func(context.Context) ([]byte, error) {
			return nil, fmt.Errorf("disk full")
		}),
		artifactJob("slow-but-polite", func(ctx context.Context) ([]byte, error) {
			<-ctx.Done() // honors cancellation like a sim run does
			return nil, ctx.Err()
		}),
	}
	p := &Pool{Jobs: 2, JobDeadline: 20 * time.Millisecond}
	results := p.Run(context.Background(), jobs)
	if e := results[0].Err; e == nil || e.Kind != guard.KindError || !strings.Contains(e.Msg, "disk full") {
		t.Errorf("io-error = %+v, want kind error", e)
	}
	if e := results[1].Err; e == nil || e.Kind != guard.KindDeadline {
		t.Errorf("slow-but-polite = %+v, want kind deadline", e)
	}
}

// TestPoolAbandonsStuckJob checks a body that ignores its context is
// abandoned after the grace window — the batch continues — and the
// failure says so.
func TestPoolAbandonsStuckJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	jobs := []Job{
		artifactJob("stuck", func(context.Context) ([]byte, error) {
			<-release // ignores ctx: simulates a body outside the simulator
			return nil, nil
		}),
		artifactJob("after", func(context.Context) ([]byte, error) { return []byte("ran"), nil }),
	}
	p := &Pool{Jobs: 1, JobDeadline: 10 * time.Millisecond}
	results := p.Run(context.Background(), jobs)
	if e := results[0].Err; e == nil || e.Kind != guard.KindDeadline || !strings.Contains(e.Msg, "abandoned") {
		t.Errorf("stuck job = %+v, want abandoned deadline error", e)
	}
	if results[1].Err != nil || string(results[1].Artifact) != "ran" {
		t.Errorf("batch did not continue past the stuck job: %+v", results[1])
	}
}

// TestPoolBatchCancellation checks cancelling the batch context stops
// running jobs (KindCancelled) and never starts the rest.
func TestPoolBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = artifactJob(fmt.Sprintf("j%d", i), func(ctx context.Context) ([]byte, error) {
			if started.Add(1) == 1 {
				cancel() // first job to run kills the batch
			}
			<-ctx.Done()
			return nil, ctx.Err()
		})
	}
	p := &Pool{Jobs: 1}
	results := p.Run(ctx, jobs)
	var cancelled int
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("job %s succeeded after batch cancel", r.ID)
			continue
		}
		if r.Err.Kind == guard.KindCancelled {
			cancelled++
		}
	}
	if cancelled != len(jobs) {
		t.Errorf("%d/%d jobs report cancellation", cancelled, len(jobs))
	}
	if s := started.Load(); s != 1 {
		t.Errorf("%d jobs started after cancel, want 1", s)
	}
}

// TestPoolCacheRoundTrip checks the execute→cache→restore cycle: the
// second batch restores every artifact without running a body, and the
// restored bytes are identical.
func TestPoolCacheRoundTrip(t *testing.T) {
	cache := &Cache{Dir: t.TempDir()}
	var bodyRuns atomic.Int64
	mkJobs := func() []Job {
		jobs := make([]Job, 4)
		for i := range jobs {
			i := i
			jobs[i] = Job{
				ID:  fmt.Sprintf("job%d", i),
				Key: Key{Kind: "test", Scenario: fmt.Sprintf("s%d", i), Seed: 2},
				Run: func(context.Context) ([]byte, error) {
					bodyRuns.Add(1)
					return []byte(fmt.Sprintf("payload-%d", i)), nil
				},
			}
		}
		return jobs
	}
	p1 := &Pool{Jobs: 2, Cache: cache}
	first := p1.Run(context.Background(), mkJobs())
	if n := bodyRuns.Load(); n != 4 {
		t.Fatalf("cold batch ran %d bodies, want 4", n)
	}
	p2 := &Pool{Jobs: 2, Cache: cache}
	second := p2.Run(context.Background(), mkJobs())
	if n := bodyRuns.Load(); n != 4 {
		t.Errorf("warm batch re-simulated: %d body runs total, want 4", n)
	}
	for i := range second {
		if !second[i].Cached {
			t.Errorf("job %d not marked cached", i)
		}
		if string(second[i].Artifact) != string(first[i].Artifact) {
			t.Errorf("job %d artifact changed across cache: %q vs %q",
				i, first[i].Artifact, second[i].Artifact)
		}
	}
	if st := p2.Stats(); st.CacheHits != 4 || st.Executed != 0 {
		t.Errorf("warm stats = %+v, want 4 hits 0 executed", st)
	}
}

// TestPoolProgressEvents checks the progress stream is serialized, the
// Done counter is monotone, and every job contributes a terminal event.
func TestPoolProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []ProgressEvent
	p := &Pool{Jobs: 4, Progress: func(ev ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}
	jobs := make([]Job, 6)
	for i := range jobs {
		fail := i == 3
		jobs[i] = artifactJob(fmt.Sprintf("j%d", i), func(context.Context) ([]byte, error) {
			if fail {
				return nil, fmt.Errorf("nope")
			}
			return nil, nil
		})
	}
	p.Run(context.Background(), jobs)
	lastDone := 0
	terminal := 0
	for _, ev := range events {
		if ev.Done < lastDone {
			t.Errorf("Done counter went backwards: %d after %d", ev.Done, lastDone)
		}
		lastDone = ev.Done
		if ev.Kind != ProgressStart {
			terminal++
		}
		if ev.Total != 6 {
			t.Errorf("event Total = %d, want 6", ev.Total)
		}
	}
	if terminal != 6 {
		t.Errorf("%d terminal events, want 6", terminal)
	}
	if lastDone != 6 {
		t.Errorf("final Done = %d, want 6", lastDone)
	}
}

// TestPoolDuplicateID pins the programming-error contract.
func TestPoolDuplicateID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate job IDs did not panic")
		}
	}()
	p := &Pool{}
	p.Run(context.Background(), []Job{
		artifactJob("dup", func(context.Context) ([]byte, error) { return nil, nil }),
		artifactJob("dup", func(context.Context) ([]byte, error) { return nil, nil }),
	})
}

// TestForEach covers the parallel loop helper: full coverage of indices,
// inline execution at workers=1, and deterministic first-by-index error.
func TestForEach(t *testing.T) {
	var hits [32]atomic.Int64
	if err := ForEach(context.Background(), 4, len(hits), func(_ context.Context, i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Errorf("index %d visited %d times", i, hits[i].Load())
		}
	}

	// First error by index, not completion order: the error at index 2
	// must win over the one at index 9 even though 9 may finish first.
	err := ForEach(context.Background(), 4, 16, func(_ context.Context, i int) error {
		switch i {
		case 2:
			time.Sleep(10 * time.Millisecond)
			return fmt.Errorf("err-2")
		case 9:
			return fmt.Errorf("err-9")
		}
		return nil
	})
	if err == nil || err.Error() != "err-2" {
		t.Errorf("ForEach error = %v, want err-2 (first by index)", err)
	}
}
