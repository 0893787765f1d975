// Package runner is the experiment orchestration engine: it executes sets
// of independent, deterministic emulation jobs on a bounded worker pool
// with context cancellation, per-job wall-clock deadlines, a
// content-addressed result cache, and a resumable batch manifest.
//
// A Job is a stable ID, a canonical configuration Key (whose SHA-256
// fingerprint is the cache address), and a body taking a context.Context.
// Because every emulation is a pure function of its configuration — runs
// are deterministic and the probe/guard layers are observation-only — a
// batch executed in parallel produces byte-identical artifacts to the
// same batch executed sequentially, and a cached artifact is
// indistinguishable from a re-run. Those two invariants are what make
// this subsystem safe; the parity and cache tests assert them.
//
// Jobs must honor their context: simulation-backed bodies thread it into
// network.Config (the event loop checks cancellation at run-tick
// granularity), so a blown deadline actually stops the work instead of
// leaking a goroutine that simulates forever.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"starvation/internal/guard"
	"starvation/internal/obs"
)

// Job is one unit of a batch.
type Job struct {
	// ID is the stable, batch-unique identifier (manifest key).
	ID string
	// Key is the canonical configuration fingerprinted for the cache;
	// the zero Key marks the job uncacheable.
	Key Key
	// Run produces the job's serialized artifact. It must return
	// promptly (with ctx.Err()) once ctx is cancelled.
	Run func(ctx context.Context) ([]byte, error)
}

// JobResult is the outcome of one job in a batch.
type JobResult struct {
	ID string
	// Artifact is the job's output (nil on failure).
	Artifact []byte
	// Cached reports the artifact was restored from the cache without
	// re-simulating.
	Cached bool
	// Elapsed is the wall-clock execution time of the final attempt
	// (0 for cache hits).
	Elapsed time.Duration
	// Attempts counts executions of the job body (0 for cache hits,
	// 1 for a first-attempt success, more when the retry policy fired).
	Attempts int
	// History records every failed attempt, including — on a terminal
	// failure — the final one (which Err carries in full).
	History []AttemptError
	// Err is the structured failure, nil on success.
	Err *guard.RunError
}

// ProgressKind classifies a progress event.
type ProgressKind uint8

const (
	// ProgressStart: a worker began executing the job.
	ProgressStart ProgressKind = iota
	// ProgressDone: the job produced its artifact.
	ProgressDone
	// ProgressCached: the job was restored from the cache.
	ProgressCached
	// ProgressFailed: the job failed terminally (panic, error, deadline,
	// cancel — with no retry budget left or a non-retryable kind).
	ProgressFailed
	// ProgressRetry: an attempt failed but the retry policy grants
	// another; Err carries the attempt's failure, Attempt the attempt
	// number that failed. Not a terminal event — Done does not advance.
	ProgressRetry
	// ProgressQuarantined: the job's cache entry was defective and moved
	// aside (see Cache); Warning says what and where. The job re-runs.
	// Not a terminal event.
	ProgressQuarantined
)

func (k ProgressKind) String() string {
	switch k {
	case ProgressStart:
		return "start"
	case ProgressDone:
		return "done"
	case ProgressCached:
		return "cached"
	case ProgressFailed:
		return "failed"
	case ProgressRetry:
		return "retry"
	case ProgressQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("progress(%d)", uint8(k))
}

// ProgressEvent is one observable state transition of a batch. Events
// are delivered from worker goroutines, serialized by an internal lock,
// so a Progress callback needs no synchronization of its own.
type ProgressEvent struct {
	Job  string
	Kind ProgressKind
	// Done and Total count completed (done+cached+failed) jobs and the
	// batch size, for "3/12"-style reporting.
	Done, Total int
	// Elapsed is the job's execution time (ProgressDone/ProgressFailed/
	// ProgressRetry).
	Elapsed time.Duration
	// Attempt is the 1-based attempt number this event belongs to.
	Attempt int
	// Err accompanies ProgressFailed and ProgressRetry.
	Err *guard.RunError
	// Warning accompanies ProgressQuarantined: one line naming the entry,
	// what was wrong with it and where it was moved.
	Warning string
}

// Stats are the batch counters, exported in the obs counter-registry
// idiom (see WritePrometheus).
type Stats struct {
	// Executed counts jobs that actually simulated.
	Executed int64 `json:"executed"`
	// CacheHits counts jobs restored from the content-addressed cache.
	CacheHits int64 `json:"cache_hits"`
	// Failed counts jobs that ended in a RunError.
	Failed int64 `json:"failed"`
	// Retries counts re-attempts granted by the retry policy (a job that
	// failed twice and then succeeded contributes 2).
	Retries int64 `json:"retries"`
	// Inflight gauges the jobs executing (or restoring) right now — the
	// shared-pool occupancy a serving scheduler watches for saturation.
	Inflight int64 `json:"inflight"`
	// CacheCorrupt counts cache entries quarantined on read (checksum
	// mismatch or undecodable envelope); 0 when the pool has no cache.
	CacheCorrupt int64 `json:"cache_corrupt"`
	// HeapAllocBytes/TotalAllocs/NumGC are the driver process's memory
	// self-telemetry, read once per Stats call (runtime.ReadMemStats is
	// off every job's hot path).
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	TotalAllocs    uint64 `json:"total_allocs"`
	NumGC          uint32 `json:"num_gc"`
	// Goroutines gauges pool + job concurrency at collection time.
	Goroutines int `json:"goroutines"`
}

// jobGrace is how long a cancelled job may take to return before its
// goroutine is abandoned. A job that honors its context returns well
// inside it; the window only matters for bodies stuck outside the
// simulator.
const jobGrace = 250 * time.Millisecond

// Pool executes job sets on bounded workers.
type Pool struct {
	// Jobs is the worker count; 0 selects GOMAXPROCS.
	Jobs int
	// JobDeadline is the per-job wall-clock budget; 0 disables it.
	JobDeadline time.Duration
	// Cache, when non-nil, serves and stores artifacts by fingerprint.
	Cache *Cache
	// Manifest, when non-nil, records every outcome for resumption.
	Manifest *Manifest
	// Retry is the supervision policy: the zero value gives every job a
	// single attempt (the pre-supervision behavior).
	Retry RetryPolicy
	// Progress, when non-nil, observes batch state transitions.
	Progress func(ProgressEvent)

	executed  atomic.Int64
	cacheHits atomic.Int64
	failed    atomic.Int64
	retries   atomic.Int64
	inflight  atomic.Int64

	progressMu sync.Mutex
	completed  int
	total      int
}

// Exec is one job execution request on a shared, long-running pool (see
// Execute). The optional fields route the execution's side channels away
// from the pool-wide defaults so independent batches can share one pool —
// one cache, one counter set — without sharing progress streams,
// manifests, or supervision budgets.
type Exec struct {
	// Job is the unit to execute (or restore from the cache).
	Job Job
	// Progress, when non-nil, observes this execution's state transitions.
	// Unlike Pool.Progress, events carry no Done/Total — a shared pool has
	// no batch denominator; the caller layers its own accounting on top.
	Progress func(ProgressEvent)
	// Manifest, when non-nil, records the outcome for resumption instead
	// of the pool's manifest (a shared pool typically has none).
	Manifest *Manifest
	// Retry, when non-nil, overrides the pool's retry policy for this
	// execution (e.g. a chaos batch bringing its own attempt budget).
	Retry *RetryPolicy
}

// Stats returns the pool's batch counters plus process self-telemetry.
func (p *Pool) Stats() Stats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var corrupt int64
	if p.Cache != nil {
		corrupt = p.Cache.corrupt.Load()
	}
	return Stats{
		Executed:       p.executed.Load(),
		CacheHits:      p.cacheHits.Load(),
		Failed:         p.failed.Load(),
		Retries:        p.retries.Load(),
		Inflight:       p.inflight.Load(),
		CacheCorrupt:   corrupt,
		HeapAllocBytes: ms.HeapAlloc,
		TotalAllocs:    ms.Mallocs,
		NumGC:          ms.NumGC,
		Goroutines:     runtime.NumGoroutine(),
	}
}

// WritePrometheus renders the batch counters in the Prometheus text
// exposition format, mirroring internal/obs's exporter so batch progress
// is visible through the same tooling as packet counters.
func (p *Pool) WritePrometheus(w io.Writer) error {
	st := p.Stats()
	rows := []struct {
		name, help string
		value      int64
	}{
		{"starvesim_runner_jobs_executed_total", "Batch jobs that simulated.", st.Executed},
		{"starvesim_runner_cache_hits_total", "Batch jobs restored from the result cache.", st.CacheHits},
		{"starvesim_runner_jobs_failed_total", "Batch jobs that ended in a RunError.", st.Failed},
		{"starvesim_runner_retries_total", "Re-attempts granted by the retry policy.", st.Retries},
		{"starvesim_runner_cache_corrupt_total", "Cache entries quarantined on read (checksum mismatch or undecodable envelope).", st.CacheCorrupt},
	}
	for _, r := range rows {
		if err := obs.WriteHeader(w, r.name, r.help, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", r.name, r.value); err != nil {
			return err
		}
	}
	gauges := []struct {
		name, help string
		value      uint64
	}{
		{"starvesim_runner_inflight_jobs", "Jobs executing or restoring right now.", uint64(st.Inflight)},
		{"starvesim_runner_heap_alloc_bytes", "Driver process live heap at collection time.", st.HeapAllocBytes},
		{"starvesim_runner_total_allocs", "Driver process cumulative allocations.", st.TotalAllocs},
		{"starvesim_runner_num_gc", "Driver process completed GC cycles.", uint64(st.NumGC)},
		{"starvesim_runner_goroutines", "Goroutines alive at collection time.", uint64(st.Goroutines)},
	}
	for _, g := range gauges {
		if err := obs.WriteHeader(w, g.name, g.help, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", g.name, g.value); err != nil {
			return err
		}
	}
	return nil
}

func (p *Pool) workers() int {
	if p.Jobs > 0 {
		return p.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

func (p *Pool) emit(ev ProgressEvent) {
	p.progressMu.Lock()
	switch ev.Kind {
	case ProgressDone, ProgressCached, ProgressFailed:
		p.completed++
	}
	ev.Done, ev.Total = p.completed, p.total
	fn := p.Progress
	if fn != nil {
		// Deliver under the lock so callbacks arrive serialized and
		// Done/Total never run backwards.
		fn(ev)
	}
	p.progressMu.Unlock()
}

// Run executes the batch and returns one JobResult per job, in input
// order regardless of completion order — the property batch drivers rely
// on for byte-identical parallel output. Duplicate job IDs are a
// programming error and panic. Cancelling ctx stops the batch: running
// jobs are cancelled and unstarted jobs report a cancellation RunError.
// Run returns once every cache write it started has landed; a write error
// stays with the cache for its owner's Cache.Flush.
func (p *Pool) Run(ctx context.Context, jobs []Job) []JobResult {
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if seen[j.ID] {
			panic(fmt.Sprintf("runner: duplicate job ID %q", j.ID))
		}
		seen[j.ID] = true
	}
	p.progressMu.Lock()
	p.completed, p.total = 0, len(jobs)
	p.progressMu.Unlock()

	results := make([]JobResult, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	env := execEnv{emit: p.emit, manifest: p.Manifest, retry: p.Retry}
	for w := 0; w < p.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = p.runOne(ctx, jobs[i], env)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if p.Cache != nil {
		p.Cache.settle()
	}
	return results
}

// Execute runs (or restores) a single job on the pool's shared machinery —
// cache, counters, panic capture, per-job deadline — outside any batch.
// It is the entry point for long-running services that schedule jobs one
// at a time from their own queues: each call is independent, safe to make
// concurrently from many goroutines, and routes its progress events and
// manifest records to the Exec's own sinks instead of the pool's. The
// caller bounds concurrency itself (the pool's Jobs field only sizes
// Run's worker set). The job's cache entry may still be pending when
// Execute returns; the pool's owner calls Cache.Flush before reading the
// cache directory or exiting.
func (p *Pool) Execute(ctx context.Context, ex Exec) JobResult {
	env := execEnv{emit: func(ev ProgressEvent) {
		if ex.Progress != nil {
			ex.Progress(ev)
		}
	}, manifest: ex.Manifest, retry: p.Retry}
	if ex.Retry != nil {
		env.retry = *ex.Retry
	}
	return p.runOne(ctx, ex.Job, env)
}

// execEnv routes one execution's side channels: progress events, the
// manifest recording the outcome, and the supervising retry policy.
// Pool.Run wires the pool-wide defaults; Execute wires per-call sinks.
type execEnv struct {
	emit     func(ProgressEvent)
	manifest *Manifest
	retry    RetryPolicy
}

// runOne executes (or restores) a single job, supervising attempts under
// the environment's retry policy.
func (p *Pool) runOne(ctx context.Context, job Job, env execEnv) JobResult {
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	var fp string
	if !job.Key.isZero() && p.Cache != nil {
		fp = p.Cache.Fingerprint(job.Key)
		art, ok, q := p.Cache.lookup(fp)
		if q != nil {
			env.emit(ProgressEvent{Job: job.ID, Kind: ProgressQuarantined, Warning: q.String()})
		}
		if ok {
			p.cacheHits.Add(1)
			// A restore writes no journal line: the batch's closing
			// Compact persists it, and a crash before then re-restores.
			if env.manifest != nil {
				env.manifest.restored(job.ID, fp)
			}
			env.emit(ProgressEvent{Job: job.ID, Kind: ProgressCached})
			return JobResult{ID: job.ID, Artifact: art, Cached: true}
		}
	}
	if err := ctx.Err(); err != nil {
		// The batch was cancelled before this job started; report
		// without touching the manifest (the job never ran).
		rerr := &guard.RunError{Scenario: job.ID, Kind: guard.KindCancelled, Msg: "batch cancelled before job started"}
		p.failed.Add(1)
		env.emit(ProgressEvent{Job: job.ID, Kind: ProgressFailed, Err: rerr})
		return JobResult{ID: job.ID, Err: rerr}
	}

	var history []AttemptError
	for attempt := 1; ; attempt++ {
		env.emit(ProgressEvent{Job: job.ID, Kind: ProgressStart, Attempt: attempt})
		art, elapsed, rerr := p.attempt(ctx, job)
		if rerr == nil {
			p.executed.Add(1)
			if fp != "" {
				// Write-behind: a full or read-only cache dir degrades warm
				// re-runs (the job re-simulates next time), not this batch;
				// the write error surfaces at Cache.Flush.
				_ = p.Cache.Put(fp, job.Key, art)
			}
			env.record(job.ID, fp, StatusDone, nil, attempt, history)
			env.emit(ProgressEvent{Job: job.ID, Kind: ProgressDone, Elapsed: elapsed, Attempt: attempt})
			return JobResult{ID: job.ID, Artifact: art, Elapsed: elapsed, Attempts: attempt, History: history}
		}
		history = append(history, attemptError(attempt, rerr))
		if attempt >= env.retry.maxAttempts() || !rerr.Kind.Retryable() || ctx.Err() != nil {
			return p.fail(job.ID, fp, rerr, elapsed, attempt, history, env)
		}
		p.retries.Add(1)
		env.emit(ProgressEvent{Job: job.ID, Kind: ProgressRetry, Elapsed: elapsed, Attempt: attempt, Err: rerr})
		if !sleepCtx(ctx, env.retry.backoff(job.ID, attempt)) {
			rerr := &guard.RunError{Scenario: job.ID, Seed: job.Key.Seed, Kind: guard.KindCancelled,
				Msg: fmt.Sprintf("batch cancelled during retry backoff (after attempt %d)", attempt)}
			return p.fail(job.ID, fp, rerr, elapsed, attempt, history, env)
		}
	}
}

// attempt executes the job body once under panic capture, the per-job
// deadline, and the abandonment grace window, returning the artifact or
// a classified RunError.
func (p *Pool) attempt(ctx context.Context, job Job) ([]byte, time.Duration, *guard.RunError) {
	jctx := ctx
	cancel := context.CancelFunc(func() {})
	if p.JobDeadline > 0 {
		jctx, cancel = context.WithTimeout(ctx, p.JobDeadline)
	}
	defer cancel()

	type outcome struct {
		art  []byte
		err  error
		rerr *guard.RunError
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		var o outcome
		o.rerr = guard.Capture(job.ID, job.Key.Seed, func() {
			o.art, o.err = job.Run(jctx)
		})
		done <- o
	}()

	var o outcome
	select {
	case o = <-done:
	case <-jctx.Done():
		// Give the body its grace to notice the cancellation; a
		// simulation-backed job returns within a few event ticks.
		t := time.NewTimer(jobGrace)
		select {
		case o = <-done:
			t.Stop()
		case <-t.C:
			rerr := &guard.RunError{
				Scenario: job.ID,
				Seed:     job.Key.Seed,
				Kind:     p.cancelKind(ctx, jctx),
				Msg: fmt.Sprintf("cancelled after %v and did not stop within %v; goroutine abandoned",
					time.Since(start).Round(time.Millisecond), jobGrace),
			}
			return nil, time.Since(start), rerr
		}
	}
	elapsed := time.Since(start)
	return o.art, elapsed, p.classify(job, jctx, ctx, o.rerr, o.err)
}

// classify converts a job outcome into a structured RunError (nil on
// success), attributing context expiry to the right cause.
func (p *Pool) classify(job Job, jctx, ctx context.Context, rerr *guard.RunError, err error) *guard.RunError {
	if rerr != nil {
		return rerr // panic, already structured by guard.Capture
	}
	if err == nil {
		return nil
	}
	var re *guard.RunError
	if errors.As(err, &re) {
		// The body already classified its failure (e.g. a KindExport from
		// a flushing sink); keep the kind so retryability is honored.
		return re
	}
	kind := guard.KindError
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		jctx.Err() != nil {
		kind = p.cancelKind(ctx, jctx)
	}
	return &guard.RunError{Scenario: job.ID, Seed: job.Key.Seed, Kind: kind, Msg: err.Error()}
}

// cancelKind distinguishes a per-job deadline from a batch cancellation.
func (p *Pool) cancelKind(ctx, jctx context.Context) guard.ErrKind {
	if ctx.Err() != nil {
		return guard.KindCancelled
	}
	if errors.Is(jctx.Err(), context.DeadlineExceeded) {
		return guard.KindDeadline
	}
	return guard.KindCancelled
}

func (p *Pool) fail(id, fp string, rerr *guard.RunError, elapsed time.Duration, attempts int, history []AttemptError, env execEnv) JobResult {
	p.failed.Add(1)
	env.record(id, fp, statusFailed, rerr, attempts, history)
	env.emit(ProgressEvent{Job: id, Kind: ProgressFailed, Elapsed: elapsed, Attempt: attempts, Err: rerr})
	return JobResult{ID: id, Elapsed: elapsed, Attempts: attempts, History: history, Err: rerr}
}

func (env execEnv) record(id, fp string, status JobStatus, rerr *guard.RunError, attempts int, history []AttemptError) {
	if env.manifest != nil {
		// Flush errors are non-fatal by design; see Manifest.Record.
		_ = env.manifest.Record(id, fp, status, rerr, attempts, history)
	}
}

// ForEach runs fn(ctx, i) for i in [0, n) on a bounded worker pool and
// returns the first error by index (not by completion time, so the
// result is deterministic). It is the lightweight in-memory sibling of
// Pool.Run for parallel loops inside a measurement — sweep points, seed
// sweeps — where results land in caller-owned slices indexed by i.
// workers ≤ 1 runs inline, preserving strict sequential semantics.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(ctx, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
