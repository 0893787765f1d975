package service

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"starvation/internal/core"
	"starvation/internal/network"
	"starvation/internal/obs"
	"starvation/internal/runner"
	"starvation/internal/runner/chaos"
)

// defaultWorkers sizes the worker set when Config.Workers is 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// manifestHistoryKeep bounds absorbed-failure history per job in a
// long-running daemon's batch manifests (Manifest.Compact at finalize).
const manifestHistoryKeep = 8

// DefaultDrainGrace is how long Drain lets running jobs finish before
// cancelling them (they re-run, from manifest, after the next start).
const DefaultDrainGrace = 5 * time.Second

// Config configures a Server.
type Config struct {
	// DataDir roots the persistent state: <DataDir>/cache (shared
	// content-addressed artifact cache) and <DataDir>/batches/<id>/
	// (per-batch record, manifest, artifact tree).
	DataDir string
	// Workers bounds concurrently executing jobs (0 selects GOMAXPROCS
	// via the pool).
	Workers int
	// QueueDepth bounds queued (admitted, unstarted) jobs across all
	// clients; past it POST /batches returns 429 (0 selects
	// DefaultQueueDepth).
	QueueDepth int
	// JobDeadline is the per-job wall-clock budget (0 disables).
	JobDeadline time.Duration
	// Retry is the default supervision policy for batches without a chaos
	// spec (chaos batches bring the budget their spec implies).
	Retry runner.RetryPolicy
	// DrainGrace bounds how long Drain waits for running jobs
	// (0 selects DefaultDrainGrace).
	DrainGrace time.Duration
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// Server is the starved experiment daemon: admission, scheduling,
// execution, streaming, persistence.
type Server struct {
	cfg   Config
	pool  *runner.Pool
	sched *Scheduler
	// sessions hands each executing job a recycled network run context:
	// a worker borrows one session per attempt, so the daemon's steady
	// state rebuilds each distinct topology once per concurrent worker
	// rather than once per job. Realizations (and thus artifacts and the
	// cache's server-vs-CLI byte parity) are bit-identical either way.
	sessions *network.SessionPool
	// beforeArtifact, when non-nil, runs ahead of every artifact write;
	// tests set it before Start to slow a write down.
	beforeArtifact func(job string)

	fams      *obs.FamilySet
	mJobs     *obs.Family // counter: jobs completed per client
	mBatches  *obs.Family // counter: batches admitted per client
	mRejected *obs.Family // counter: batches rejected (429) per client
	mEvents   *obs.Family // counter: events published per batch state transition kind
	gQueue    *obs.Family // gauge: queued jobs
	gActive   *obs.Family // gauge: non-terminal batches

	rootCtx    context.Context
	rootCancel context.CancelFunc
	workersWG  sync.WaitGroup

	mu       sync.Mutex
	batches  map[string]*batch
	order    []string // admission order, for listings
	seq      int
	draining bool
	resume   []*batch // loaded at New, enqueued at Start
}

// jobUnit is the scheduler payload: one job of one batch.
type jobUnit struct {
	b   *batch
	idx int
}

// New builds a server over DataDir, loading any batches a previous
// daemon left behind. Interrupted batches are re-enqueued at Start; their
// completed jobs restore from the cache without re-simulating.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: DataDir required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "batches"), 0o755); err != nil {
		return nil, err
	}
	fams := obs.NewFamilySet()
	s := &Server{
		cfg: cfg,
		pool: &runner.Pool{
			JobDeadline: cfg.JobDeadline,
			Cache:       &runner.Cache{Dir: filepath.Join(cfg.DataDir, "cache")},
			Retry:       cfg.Retry,
		},
		sched:     NewScheduler(cfg.QueueDepth),
		sessions:  network.NewSessionPool(),
		fams:      fams,
		mJobs:     fams.Counter("starved_jobs_total", "Jobs completed per client (includes cache restores and failures).", "client"),
		mBatches:  fams.Counter("starved_batches_total", "Batches admitted per client.", "client"),
		mRejected: fams.Counter("starved_rejected_total", "Batches rejected with 429 per client.", "client"),
		mEvents:   fams.Counter("starved_events_total", "Batch events published, by event type.", "type"),
		gQueue:    fams.Gauge("starved_queue_depth", "Jobs admitted and waiting for a worker.", ""),
		gActive:   fams.Gauge("starved_active_batches", "Batches not yet in a terminal state.", ""),
		batches:   map[string]*batch{},
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	if err := s.loadExisting(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// loadExisting restores persisted batches. A batch whose every job is
// satisfied (see jobSatisfied) is terminal; anything else is queued for
// resume.
func (s *Server) loadExisting() error {
	root := filepath.Join(s.cfg.DataDir, "batches")
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() && validBatchID(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		dir := filepath.Join(root, name)
		rec, err := loadRecord(dir)
		if err != nil {
			// A torn admission (crash before batch.json landed) or a foreign
			// schema: skip it rather than refuse to start.
			s.logf("service: skipping %s: %v", dir, err)
			continue
		}
		b := s.restore(rec, dir)
		s.batches[rec.ID] = b
		s.order = append(s.order, rec.ID)
		if n := seqOf(rec.ID); n > s.seq {
			s.seq = n
		}
		if !b.status().State.terminal() {
			s.resume = append(s.resume, b)
		}
	}
	return nil
}

// restore rebuilds a batch's runtime state from its persisted record.
func (s *Server) restore(rec batchRecord, dir string) *batch {
	b := &batch{
		rec:      rec,
		dir:      dir,
		manifest: runner.LoadManifest(filepath.Join(dir, "manifest.json")),
		hub:      NewHub(),
		state:    stateQueued,
	}
	b.ctx, b.cancel = context.WithCancel(s.rootCtx)
	if b.manifest.RecoveredFrom != "" {
		s.logf("service: %s: %s", rec.ID, b.manifest.RecoveredFrom)
	}
	satisfied := 0
	for _, bj := range rec.Jobs {
		if s.jobSatisfied(b, bj) {
			satisfied++
		}
	}
	b.done, b.succeeded = satisfied, satisfied
	if satisfied == len(rec.Jobs) {
		b.state = stateDone
		// The manifest's mtime is stamped from the filesystem's clock,
		// which can be coarser than time.Now and read before created.
		b.finished = rec.Created
		if fi, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil && fi.ModTime().After(rec.Created) {
			b.finished = fi.ModTime()
		}
		b.hub.close()
		// A daemon that died between the batch's last record and finalize
		// left its manifest journaled: fold it as finalize would have (a
		// no-op for a folded manifest).
		if _, err := b.manifest.Compact(manifestHistoryKeep); err != nil {
			s.logf("service: %s: compacting manifest: %v", rec.ID, err)
		}
	}
	return b
}

// jobSatisfied reports whether a persisted job needs no work: the
// manifest says done under the current fingerprint, and its artifact is
// either in the batch tree (an executed job) or in the cache (a restored
// one). A job that fails the check is re-enqueued; if its artifact is
// still cached the re-run is a restore, not a simulation.
func (s *Server) jobSatisfied(b *batch, bj batchJob) bool {
	// A new batch's manifest is empty: look the job up before hashing its
	// key.
	e, ok := b.manifest.Entry(bj.Name)
	if !ok || !b.manifest.Done(bj.Name, s.pool.Cache.Fingerprint(bj.spec().Key())) {
		return false
	}
	if _, err := os.Stat(b.artifactPath(bj.Name)); err == nil {
		return true
	}
	_, ok = s.pool.Cache.Get(e.Fingerprint)
	return ok
}

// artifact returns a job's bytes: an executed job's file in the batch
// tree, or a job's entry in the cache under the fingerprint its manifest
// entry records done. A job the manifest records as restored (Attempts 0)
// has no tree file, so the cache goes first; any other job keeps the tree
// first.
func (s *Server) artifact(b *batch, job string) ([]byte, bool) {
	e, ok := b.manifest.Entry(job)
	done := ok && e.Status == runner.StatusDone
	if done && e.Attempts == 0 {
		if data, ok := s.pool.Cache.Get(e.Fingerprint); ok {
			return data, true
		}
	}
	if data, err := os.ReadFile(b.artifactPath(job)); err == nil {
		return data, true
	}
	if done && e.Attempts > 0 {
		return s.pool.Cache.Get(e.Fingerprint)
	}
	return nil, false
}

func seqOf(id string) int {
	if !strings.HasPrefix(id, "b") {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, "b"))
	if err != nil {
		return 0
	}
	return n
}

// Start launches the worker loops and re-enqueues interrupted batches.
func (s *Server) Start() {
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	for i := 0; i < workers; i++ {
		s.workersWG.Add(1)
		go func() {
			defer s.workersWG.Done()
			s.worker()
		}()
	}
	s.mu.Lock()
	resume := s.resume
	s.resume = nil
	s.mu.Unlock()
	for _, b := range resume {
		if err := s.enqueue(b); err != nil {
			s.logf("service: resuming %s: %v", b.rec.ID, err)
		} else {
			s.logf("service: resumed %s (%d/%d jobs already satisfied)", b.rec.ID, b.status().Done, len(b.rec.Jobs))
		}
	}
}

// enqueue admits the batch's outstanding jobs to the scheduler.
func (s *Server) enqueue(b *batch) error {
	items := make([]Item, 0, len(b.rec.Jobs))
	for i, bj := range b.rec.Jobs {
		if s.jobSatisfied(b, bj) {
			continue
		}
		items = append(items, Item{Client: b.rec.Client, BatchID: b.rec.ID, Payload: jobUnit{b: b, idx: i}})
	}
	if len(items) == 0 {
		s.finalize(b)
		return nil
	}
	st := b.status()
	if err := s.sched.Enqueue(b.rec.Client, b.rec.Weight, items); err != nil {
		return err
	}
	b.hub.Publish(Event{Batch: b.rec.ID, Type: "queued", Done: st.Done, Total: st.Jobs})
	s.mEvents.Add("queued", 1)
	return nil
}

// worker pulls scheduled jobs until the scheduler closes.
func (s *Server) worker() {
	for {
		it, ok := s.sched.Next()
		if !ok {
			return
		}
		u := it.Payload.(jobUnit)
		s.execute(u.b, u.idx)
	}
}

// execute runs one job of a batch on the shared pool.
func (s *Server) execute(b *batch, idx int) {
	bj := b.rec.Jobs[idx]
	if b.ctx.Err() != nil {
		// Cancelled between scheduling and execution; the batch is already
		// finalized as cancelled, don't touch its accounting.
		return
	}
	b.mu.Lock()
	b.running++
	if b.state == stateQueued {
		b.state = stateRunning
	}
	b.mu.Unlock()

	spec := bj.spec()
	job := runner.Job{
		ID:  bj.Name,
		Key: spec.Key(),
		Run: func(ctx context.Context) ([]byte, error) {
			// Rebuild the configuration per attempt: flow specs carry
			// stateful CCA instances and must never be reused.
			cfg, err := spec.Config()
			if err != nil {
				return nil, err
			}
			cfg.Ctx = ctx
			// Borrow a recycled run context for the attempt. A session is
			// safe to return even after a failed or cancelled run — the
			// next run resets everything it touched.
			cfg.Session = s.sessions.Get()
			defer s.sessions.Put(cfg.Session)
			pr, err := core.RunPopulation(cfg)
			if err != nil {
				return nil, err
			}
			return []byte(pr.Render()), nil
		},
	}
	ex := runner.Exec{
		Job:      job,
		Manifest: b.manifest,
		Progress: func(ev runner.ProgressEvent) { s.onProgress(b, ev) },
	}
	if b.rec.Chaos != "" {
		spec, err := chaos.Parse(b.rec.Chaos) // validated at admission
		if err == nil {
			ex.Job = chaos.New(spec).Wrap([]runner.Job{ex.Job})[0]
			retry := spec.Retry()
			ex.Retry = &retry
		}
	}
	res := s.pool.Execute(b.ctx, ex)
	// A restored job's bytes stay in the cache, which serves them; only
	// an executed job's are copied into the batch tree.
	if res.Err == nil && !res.Cached {
		if err := s.writeArtifact(b, bj.Name, res.Artifact); err != nil {
			s.logf("service: %s/%s: writing artifact: %v", b.rec.ID, bj.Name, err)
		}
	}
	// The batch is terminal only once no job is still between its terminal
	// progress event (which bumps done inside pool.Execute) and its
	// artifact rename above: whoever leaves last finalizes, so batch-done
	// is never published ahead of an artifact.
	b.mu.Lock()
	b.running--
	terminal := b.done >= len(b.rec.Jobs) && b.running == 0
	b.mu.Unlock()
	s.mJobs.Add(b.rec.Client, 1)
	if terminal {
		s.finalize(b)
	}
}

// writeArtifact lands an executed job's rendered output in the batch tree
// with write-then-rename (a crashed daemon never leaves a torn artifact).
func (s *Server) writeArtifact(b *batch, name string, data []byte) error {
	if s.beforeArtifact != nil {
		s.beforeArtifact(name)
	}
	dir := filepath.Join(b.dir, "artifacts")
	tmp, err := os.CreateTemp(dir, "."+name+".tmp")
	if errors.Is(err, fs.ErrNotExist) {
		// The batch's first artifact: create the directory once here
		// rather than stat it on every job.
		if err = os.MkdirAll(dir, 0o755); err == nil {
			tmp, err = os.CreateTemp(dir, "."+name+".tmp")
		}
	}
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), b.artifactPath(name))
}

// onProgress folds a runner progress event into batch accounting and the
// batch's event stream. Terminal kinds advance Done; Start/Retry don't. A
// quarantined cache entry is the daemon's concern, not the client's: it
// goes to the log, not the stream.
func (s *Server) onProgress(b *batch, ev runner.ProgressEvent) {
	if ev.Kind == runner.ProgressQuarantined {
		s.logf("service: %s/%s: %s", b.rec.ID, ev.Job, ev.Warning)
		return
	}
	var typ string
	b.mu.Lock()
	switch ev.Kind {
	case runner.ProgressStart:
		typ = "start"
	case runner.ProgressRetry:
		typ = "retry"
	case runner.ProgressDone:
		typ = "done"
		b.done++
		b.succeeded++
	case runner.ProgressCached:
		typ = "cached"
		b.done++
		b.succeeded++
		b.cached++
	case runner.ProgressFailed:
		typ = "failed"
		b.done++
		b.failed++
	default:
		typ = ev.Kind.String()
	}
	done, total := b.done, len(b.rec.Jobs)
	b.mu.Unlock()
	out := Event{
		Batch: b.rec.ID, Type: typ, Job: ev.Job,
		Done: done, Total: total, Attempt: ev.Attempt,
		ElapsedMs: ev.Elapsed.Milliseconds(),
	}
	if ev.Err != nil {
		out.Err = ev.Err.Error()
	}
	b.hub.Publish(out)
	s.mEvents.Add(typ, 1)
}

// finalize moves a fully-accounted batch to its terminal state, closes
// its event stream, and compacts its manifest's retry history.
func (s *Server) finalize(b *batch) {
	b.mu.Lock()
	if b.state.terminal() {
		b.mu.Unlock()
		return
	}
	if b.failed > 0 {
		b.state = stateFailed
	} else {
		b.state = stateDone
	}
	b.finished = time.Now()
	st, done, total := b.state, b.done, len(b.rec.Jobs)
	b.mu.Unlock()
	typ := "batch-done"
	if st == stateFailed {
		typ = "batch-failed"
	}
	b.hub.Publish(Event{Batch: b.rec.ID, Type: typ, Done: done, Total: total})
	s.mEvents.Add(typ, 1)
	b.hub.close()
	if dropped, err := b.manifest.Compact(manifestHistoryKeep); err != nil {
		s.logf("service: %s: compacting manifest: %v", b.rec.ID, err)
	} else if dropped > 0 {
		s.logf("service: %s: compacted %d absorbed-failure records", b.rec.ID, dropped)
	}
	s.logf("service: %s %s (%d/%d jobs)", b.rec.ID, st, done, total)
}

// submit admits a batch: persist, then schedule. It returns the created
// batch's status, or an error the HTTP layer maps to 429/503/500.
func (s *Server) submit(req BatchRequest, jobs []batchJob) (BatchStatus, error) {
	client := req.Client
	if client == "" {
		client = "anonymous"
	}
	weight := req.Weight
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return BatchStatus{}, errClosed
	}
	s.seq++
	id := fmt.Sprintf("b%06d", s.seq)
	s.mu.Unlock()

	dir := filepath.Join(s.cfg.DataDir, "batches", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return BatchStatus{}, err
	}
	rec := batchRecord{
		Schema: runner.SchemaVersion, ID: id, Client: client, Weight: weight,
		Name: req.Name, Chaos: req.Chaos, Jobs: jobs, Created: time.Now().UTC(),
	}
	if err := saveRecord(dir, rec); err != nil {
		os.RemoveAll(dir)
		return BatchStatus{}, err
	}
	b := s.restore(rec, dir)
	if err := s.enqueue(b); err != nil {
		os.RemoveAll(dir)
		if err == errQueueFull {
			s.mRejected.Add(client, 1)
		}
		return BatchStatus{}, err
	}
	s.mu.Lock()
	s.batches[id] = b
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.mBatches.Add(client, 1)
	s.logf("service: admitted %s: client=%s weight=%d jobs=%d chaos=%q", id, client, weight, len(jobs), req.Chaos)
	return b.status(), nil
}

// cancel cancels a batch: queued jobs are discarded, running jobs'
// contexts are cancelled, and the batch goes terminal immediately.
func (s *Server) cancel(id string) (BatchStatus, bool) {
	s.mu.Lock()
	b, ok := s.batches[id]
	s.mu.Unlock()
	if !ok {
		return BatchStatus{}, false
	}
	b.mu.Lock()
	if b.state.terminal() {
		b.mu.Unlock()
		return b.status(), true
	}
	b.state = stateCancelled
	b.finished = time.Now()
	done, total := b.done, len(b.rec.Jobs)
	b.mu.Unlock()
	removed := s.sched.cancel(id)
	b.cancel()
	b.hub.Publish(Event{Batch: id, Type: "batch-cancelled", Done: done, Total: total})
	s.mEvents.Add("batch-cancelled", 1)
	b.hub.close()
	s.logf("service: cancelled %s (%d queued jobs discarded)", id, removed)
	return b.status(), true
}

// batch returns a batch by ID.
func (s *Server) batch(id string) (*batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	return b, ok
}

// statuses lists every batch in admission order.
func (s *Server) statuses() []BatchStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]BatchStatus, 0, len(ids))
	for _, id := range ids {
		if b, ok := s.batch(id); ok {
			out = append(out, b.status())
		}
	}
	return out
}

// isDraining reports whether Drain has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// activeBatches counts non-terminal batches.
func (s *Server) activeBatches() int {
	n := 0
	for _, st := range s.statuses() {
		if !st.State.terminal() {
			n++
		}
	}
	return n
}

// Drain shuts the server down cleanly: admission stops (503), queued jobs
// are discarded (their manifests resume them next start), and running
// jobs get DrainGrace to finish before their contexts are cancelled.
// Blocks until every worker has exited and the cache's pending writes
// have landed (a failed write is logged once).
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.workersWG.Wait()
		return
	}
	s.draining = true
	s.mu.Unlock()
	discarded := s.sched.queued()
	s.sched.close()
	s.logf("service: draining: %d queued jobs discarded (resumable), waiting for running jobs", discarded)
	done := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		close(done)
	}()
	grace := s.cfg.DrainGrace
	if grace <= 0 {
		grace = DefaultDrainGrace
	}
	select {
	case <-done:
	case <-time.After(grace):
		s.logf("service: drain grace %v expired; cancelling running jobs", grace)
		s.rootCancel()
		<-done
	}
	s.rootCancel()
	if err := s.pool.Cache.Flush(); err != nil {
		s.logf("service: cache writes failed (later runs re-simulate those jobs): %v", err)
	}
	s.logf("service: drained")
}
