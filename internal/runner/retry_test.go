package runner

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"starvation/internal/guard"
	"starvation/internal/sim"
)

// progressLog collects progress events for assertion, serialized by the
// pool's own delivery lock.
type progressLog struct {
	mu     sync.Mutex
	events []ProgressEvent
}

func (l *progressLog) record(ev ProgressEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *progressLog) count(kind ProgressKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestRetryDeadlineTwiceThenSucceed is the watchdog×retry interplay
// test: a job that blows its per-job deadline twice and completes on the
// third attempt must succeed, with both timeouts in its history and two
// retries in the counters.
func TestRetryDeadlineTwiceThenSucceed(t *testing.T) {
	var attempts atomic.Int64
	log := &progressLog{}
	pool := &Pool{
		Jobs:        1,
		JobDeadline: 30 * time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 3, Base: time.Millisecond},
		Progress:    log.record,
	}
	job := artifactJob("flaky-deadline", func(ctx context.Context) ([]byte, error) {
		if attempts.Add(1) <= 2 {
			<-ctx.Done() // simulate a run that only stops when the deadline fires
			return nil, ctx.Err()
		}
		return []byte("third time lucky"), nil
	})
	res := pool.Run(context.Background(), []Job{job})[0]

	if res.Err != nil {
		t.Fatalf("job failed: %+v", res.Err)
	}
	if string(res.Artifact) != "third time lucky" || res.Attempts != 3 {
		t.Errorf("result = %q after %d attempts, want success on attempt 3", res.Artifact, res.Attempts)
	}
	if len(res.History) != 2 {
		t.Fatalf("history has %d entries, want 2: %+v", len(res.History), res.History)
	}
	for i, h := range res.History {
		if h.Kind != guard.KindDeadline || h.Attempt != i+1 {
			t.Errorf("history[%d] = %+v, want deadline kind on attempt %d", i, h, i+1)
		}
	}
	if st := pool.Stats(); st.Retries != 2 || st.Executed != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v, want 2 retries, 1 executed, 0 failed", st)
	}
	if got := log.count(ProgressRetry); got != 2 {
		t.Errorf("saw %d retry events, want 2", got)
	}
	if got := log.count(ProgressStart); got != 3 {
		t.Errorf("saw %d start events, want 3 (one per attempt)", got)
	}
}

// TestRetryPanicThenSucceed checks a panicking attempt is captured by the
// guard layer and retried rather than ending the job.
func TestRetryPanicThenSucceed(t *testing.T) {
	var attempts atomic.Int64
	pool := &Pool{Jobs: 1, Retry: RetryPolicy{MaxAttempts: 2, Base: time.Millisecond}}
	job := artifactJob("panics-once", func(context.Context) ([]byte, error) {
		if attempts.Add(1) == 1 {
			panic("transient corruption")
		}
		return []byte("recovered"), nil
	})
	res := pool.Run(context.Background(), []Job{job})[0]
	if res.Err != nil || string(res.Artifact) != "recovered" || res.Attempts != 2 {
		t.Fatalf("result = %+v, want recovery on attempt 2", res)
	}
	if len(res.History) != 1 || res.History[0].Kind != "panic" ||
		!strings.Contains(res.History[0].Msg, "transient corruption") {
		t.Errorf("history = %+v, want one panic entry carrying the panic value", res.History)
	}
}

// TestRetrySimHaltLatchAcrossAttempts pins the sticky-halt interplay: a
// body that reuses one Simulator across attempts must be able to re-run
// it after a deadline halted it, because Run resets the halt latch on
// entry. A latch that stayed stuck would make every retry return
// instantly with truncated work.
func TestRetrySimHaltLatchAcrossAttempts(t *testing.T) {
	s := sim.New(1)
	var attempts atomic.Int64
	pool := &Pool{
		Jobs:        1,
		JobDeadline: 40 * time.Millisecond,
		Retry:       RetryPolicy{MaxAttempts: 2, Base: time.Millisecond},
	}
	job := artifactJob("halted-sim", func(ctx context.Context) ([]byte, error) {
		s.SetContext(ctx)
		if attempts.Add(1) == 1 {
			// First attempt: an endless event chain that only the deadline
			// stops (each event re-arms itself). While the context is live
			// each firing burns wall-clock so the deadline arrives; once it
			// cancels, fire flat-out so the simulator's periodic ctx check
			// trips (and latches the halt) well inside the grace window —
			// the pool must join this attempt before starting the next, or
			// the two would share the simulator concurrently.
			var rearm func()
			rearm = func() {
				if ctx.Err() == nil {
					time.Sleep(100 * time.Microsecond)
				}
				s.After(time.Millisecond, rearm)
			}
			s.After(time.Millisecond, rearm)
			// A modest horizon: far enough that the deadline (not the
			// horizon) ends the run, near enough that the clock jump Run
			// performs on exit stays small — attempt 2 schedules relative
			// to s.Now() and must not sit a virtual hour past the leftover
			// chain.
			s.Run(s.Now() + 10*time.Second)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return []byte("unreachable"), nil
		}
		// Second attempt: a bounded run on the same (previously halted)
		// simulator must actually execute.
		fired := false
		s.After(time.Millisecond, func() { fired = true })
		s.Run(s.Now() + 10*time.Millisecond)
		if !fired {
			return nil, fmt.Errorf("halt latch stuck: retry ran no events")
		}
		return []byte("latch reset"), nil
	})
	res := pool.Run(context.Background(), []Job{job})[0]
	if res.Err != nil || string(res.Artifact) != "latch reset" {
		t.Fatalf("result = %+v, want the retry to run the halted simulator", res)
	}
	if res.Attempts != 2 || len(res.History) != 1 || res.History[0].Kind != guard.KindDeadline {
		t.Errorf("attempts=%d history=%+v, want one deadline failure then success", res.Attempts, res.History)
	}
}

// TestRetryTerminalKinds checks the retryability table: terminal
// failures (cancellation) must not burn retry budget.
func TestRetryTerminalKinds(t *testing.T) {
	for _, kind := range []guard.ErrKind{guard.KindCancelled} {
		var attempts atomic.Int64
		pool := &Pool{Jobs: 1, Retry: RetryPolicy{MaxAttempts: 4, Base: time.Millisecond}}
		job := artifactJob(fmt.Sprintf("terminal-%s", kind), func(context.Context) ([]byte, error) {
			attempts.Add(1)
			return nil, &guard.RunError{Scenario: "terminal", Kind: kind, Msg: "structured failure"}
		})
		res := pool.Run(context.Background(), []Job{job})[0]
		if res.Err == nil || res.Err.Kind != kind {
			t.Fatalf("kind %v: result = %+v, want terminal failure of same kind", kind, res)
		}
		if got := attempts.Load(); got != 1 {
			t.Errorf("kind %v: body ran %d times, want 1 (terminal kinds must not retry)", kind, got)
		}
	}
}

// TestRetryExportKindRetryable checks a body-classified export failure
// (a flushing sink) keeps its kind through the pool's classifier and is
// retried under the default table.
func TestRetryExportKindRetryable(t *testing.T) {
	var attempts atomic.Int64
	pool := &Pool{Jobs: 1, Retry: RetryPolicy{MaxAttempts: 2, Base: time.Millisecond}}
	job := artifactJob("export-flake", func(context.Context) ([]byte, error) {
		if attempts.Add(1) == 1 {
			return nil, &guard.RunError{Scenario: "export-flake", Kind: guard.KindExport, Msg: "disk hiccup"}
		}
		return []byte("flushed"), nil
	})
	res := pool.Run(context.Background(), []Job{job})[0]
	if res.Err != nil || res.Attempts != 2 {
		t.Fatalf("result = %+v, want export failure retried", res)
	}
	if len(res.History) != 1 || res.History[0].Kind != guard.KindExport {
		t.Errorf("history = %+v, want the export kind preserved", res.History)
	}
}

// TestRetryExhaustion checks a persistently failing job consumes exactly
// its budget and reports the full history.
func TestRetryExhaustion(t *testing.T) {
	var attempts atomic.Int64
	pool := &Pool{Jobs: 1, Retry: RetryPolicy{MaxAttempts: 3, Base: time.Millisecond}}
	job := artifactJob("always-fails", func(context.Context) ([]byte, error) {
		return nil, fmt.Errorf("failure %d", attempts.Add(1))
	})
	res := pool.Run(context.Background(), []Job{job})[0]
	if res.Err == nil || res.Attempts != 3 || attempts.Load() != 3 {
		t.Fatalf("result = %+v after %d body runs, want exhaustion at 3", res, attempts.Load())
	}
	if len(res.History) != 3 || res.History[2].Msg != "failure 3" {
		t.Errorf("history = %+v, want 3 entries ending with the final failure", res.History)
	}
	if st := pool.Stats(); st.Retries != 2 || st.Failed != 1 {
		t.Errorf("stats = %+v, want 2 retries and 1 failed", st)
	}
}

// TestRetryCancelledDuringBackoff checks a batch cancellation that lands
// inside the backoff sleep ends the job with a cancellation error
// instead of another attempt.
func TestRetryCancelledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var attempts atomic.Int64
	pool := &Pool{Jobs: 1, Retry: RetryPolicy{MaxAttempts: 5, Base: 10 * time.Second}}
	job := artifactJob("cancel-in-backoff", func(context.Context) ([]byte, error) {
		attempts.Add(1)
		// Fail, then cancel the batch while the pool sleeps out the (long)
		// backoff.
		time.AfterFunc(30*time.Millisecond, cancel)
		return nil, fmt.Errorf("transient")
	})
	start := time.Now()
	res := pool.Run(ctx, []Job{job})[0]
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation did not interrupt the backoff sleep")
	}
	if res.Err == nil || res.Err.Kind != guard.KindCancelled ||
		!strings.Contains(res.Err.Msg, "backoff") {
		t.Errorf("result = %+v, want a cancellation attributed to the backoff wait", res.Err)
	}
	if attempts.Load() != 1 {
		t.Errorf("body ran %d times, want 1", attempts.Load())
	}
}

// TestBackoffDeterministic pins the backoff schedule: exponential,
// capped, and — for a fixed seed — identical across calls.
func TestBackoffDeterministic(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 6, Base: time.Second, Seed: 7}
	var first []time.Duration
	for attempt := 1; attempt <= 5; attempt++ {
		first = append(first, rp.backoff("jobA", attempt))
	}
	for attempt := 1; attempt <= 5; attempt++ {
		if again := rp.backoff("jobA", attempt); again != first[attempt-1] {
			t.Errorf("attempt %d: backoff not reproducible: %v then %v", attempt, first[attempt-1], again)
		}
	}
	for i, d := range first {
		nominal := rp.Base << i
		if nominal > retryMax {
			nominal = retryMax
		}
		lo, hi := time.Duration(float64(nominal)*(1-retryJitter)), time.Duration(float64(nominal)*(1+retryJitter))
		if d < lo || d > hi {
			t.Errorf("attempt %d: backoff %v outside jitter envelope [%v, %v]", i+1, d, lo, hi)
		}
	}
	if rp.backoff("jobA", 1) == rp.backoff("jobB", 1) {
		t.Errorf("different jobs drew identical jitter; delays would synchronize")
	}
	if d := (RetryPolicy{}).backoff("x", 1); d < defaultRetryBase/2 || d > defaultRetryBase*3/2 {
		t.Errorf("zero-Base backoff = %v, want within jitter of %v", d, defaultRetryBase)
	}
}

// TestSeededUnitStable pins the deterministic randomness source shared by
// retry jitter and the chaos injector: stable values, full [0,1) range
// behavior, sensitivity to every part.
func TestSeededUnitStable(t *testing.T) {
	a := SeededUnit(1, "fault", "F1", "1")
	if b := SeededUnit(1, "fault", "F1", "1"); a != b {
		t.Fatalf("SeededUnit not deterministic: %v vs %v", a, b)
	}
	if a < 0 || a >= 1 {
		t.Fatalf("SeededUnit out of range: %v", a)
	}
	variants := []float64{
		SeededUnit(2, "fault", "F1", "1"),
		SeededUnit(1, "other", "F1", "1"),
		SeededUnit(1, "fault", "F2", "1"),
		SeededUnit(1, "fault", "F1", "2"),
	}
	for i, v := range variants {
		if v == a {
			t.Errorf("variant %d collides with the base draw; inputs are not separated", i)
		}
	}
}

// TestManifestRecovery exercises the salvage path on a realistic torn
// manifest: complete entries survive, the torn trailing record is
// dropped, and the damage is reported.
func TestManifestRecovery(t *testing.T) {
	full := fmt.Sprintf(`{"schema":%d,"jobs":{`, SchemaVersion) +
		`"F1":{"fingerprint":"aaaa","status":"done","attempts":2,"history":[{"attempt":1,"kind":"deadline","msg":"slow"}]},` +
		`"F3":{"fingerprint":"bbbb","status":"done"},` +
		`"F5":{"fingerprint":"cccc","status":"done"}}}`
	// Cut inside F5's record: F1 and F3 must survive.
	cut := strings.Index(full, `"cccc"`) + 3
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(path, []byte(full[:cut]), 0o644); err != nil {
		t.Fatal(err)
	}
	m := LoadManifest(path)
	if m.RecoveredFrom == "" {
		t.Errorf("salvaged manifest does not report its recovery")
	}
	if !m.Done("F1", "aaaa") || !m.Done("F3", "bbbb") {
		t.Errorf("complete entries lost: len=%d recovered=%q", len(m.jobs), m.RecoveredFrom)
	}
	if m.Done("F5", "cccc") {
		t.Errorf("torn trailing entry was resurrected")
	}
	if e, _ := m.Entry("F1"); e.Attempts != 2 || len(e.History) != 1 {
		t.Errorf("attempt history lost in recovery: %+v", e)
	}

	// Garbage, and manifests of a different schema, must recover nothing.
	for _, bad := range []string{"complete garbage", `{"jobs":{"F1":{"fingerprint":"aaaa","status":"done"}}`, `{"schema":99,"jobs":{"F1":{"fingerprint":"aaaa","status":"done"`} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		m := LoadManifest(path)
		if len(m.jobs) != 0 {
			t.Errorf("recovered %d entries from %q, want 0", len(m.jobs), bad)
		}
	}
}
