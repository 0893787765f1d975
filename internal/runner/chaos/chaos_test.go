package chaos

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"starvation/internal/runner"
)

func TestParse(t *testing.T) {
	spec, err := Parse("seed:7; fail:0.3; panic:0.1; hang:0.05,500ms; slow:0.2,10ms; corrupt:2,truncate; truncate-manifest:1; maxfail:3; attempts:5")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Spec{
		Seed: 7, FailP: 0.3, PanicP: 0.1, HangP: 0.05, HangFor: 500 * time.Millisecond,
		SlowP: 0.2, SlowBy: 10 * time.Millisecond, CorruptN: 2, CorruptMode: "truncate",
		TruncateManifest: true, MaxFaultsPerJob: 3, Attempts: 5,
	}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("Parse = %+v, want %+v", spec, want)
	}
	if got, want := spec.Retry(), (runner.RetryPolicy{MaxAttempts: 5, Seed: 7, Base: retryBase}); got != want {
		t.Errorf("Retry = %+v, want %+v: the explicit attempts and the spec's seed", got, want)
	}

	implied, err := Parse("seed:1;fail:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if got := implied.Retry().MaxAttempts; got != defaultMaxFaultsPerJob+1 {
		t.Errorf("implied Retry().MaxAttempts = %d, want maxfail+1 = %d", got, defaultMaxFaultsPerJob+1)
	}

	for _, bad := range []string{
		"",                     // empty
		"fail:1.5",             // probability out of range
		"fail",                 // no value
		"bogus:1",              // unknown clause
		"slow:0.5",             // slow without duration
		"hang:0.5,nonsense",    // bad duration
		"corrupt:-1",           // negative count
		"corrupt:1,shred",      // unknown mode
		"attempts:0",           // no attempts at all
		"maxfail:3;attempts:2", // budget cannot outlast the faults
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted, want error", bad)
		}
	}
}

// TestInjectionDeterministic pins reproducibility: two injectors with the
// same spec driving identical batches inject identical fault sequences.
func TestInjectionDeterministic(t *testing.T) {
	spec, err := Parse("seed:3;fail:0.4;panic:0.2;slow:0.3,1ms")
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() []event {
		in := New(spec)
		pool := &runner.Pool{
			Jobs:  1, // sequential so attempt interleaving is fixed
			Retry: spec.Retry(),
		}
		pool.Run(context.Background(), in.Wrap(testJobs(8)))
		return in.events
	}
	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault sequences differ across identical runs:\n a: %+v\n b: %+v", a, b)
	}
	if len(a) == 0 {
		t.Fatalf("spec injected nothing; the determinism check is vacuous")
	}
}

// TestWrapConvergence is the core chaos contract: with the fault cap
// below the retry budget, every job converges and every artifact is
// byte-identical to the fault-free run.
func TestWrapConvergence(t *testing.T) {
	spec, err := Parse("seed:5;fail:0.6;panic:0.2;slow:0.2,1ms")
	if err != nil {
		t.Fatal(err)
	}
	baseline := (&runner.Pool{Jobs: 2}).Run(context.Background(), testJobs(12))

	in := New(spec)
	pool := &runner.Pool{
		Jobs:  2,
		Retry: spec.Retry(),
	}
	results := pool.Run(context.Background(), in.Wrap(testJobs(12)))
	for i, res := range results {
		if res.Err != nil {
			t.Errorf("%s failed terminally under chaos: %v (history %+v)", res.ID, res.Err, res.History)
			continue
		}
		if !bytes.Equal(res.Artifact, baseline[i].Artifact) {
			t.Errorf("%s artifact diverged from the fault-free run", res.ID)
		}
	}
	if bodyFaults(in) == 0 {
		t.Fatalf("no body faults injected; convergence was never tested")
	}
	if st := pool.Stats(); st.Retries == 0 {
		t.Errorf("chaos run recorded no retries despite %d injected faults", bodyFaults(in))
	}
}

// TestFaultCapConverges checks the per-job cap directly: a job with
// certain fault probability still converges once the cap exhausts.
func TestFaultCapConverges(t *testing.T) {
	spec, err := Parse("seed:1;fail:1.0;maxfail:2")
	if err != nil {
		t.Fatal(err)
	}
	in := New(spec)
	pool := &runner.Pool{
		Jobs:  1,
		Retry: runner.RetryPolicy{MaxAttempts: 3, Base: time.Millisecond},
	}
	res := pool.Run(context.Background(), in.Wrap(testJobs(1)))[0]
	if res.Err != nil || res.Attempts != 3 {
		t.Fatalf("result = %+v, want success on attempt 3 after 2 capped faults", res)
	}
}

// TestHangRespectsContext checks an injected hang blocks no longer than
// the attempt's context allows.
func TestHangRespectsContext(t *testing.T) {
	spec, err := Parse("seed:2;hang:1.0,1h;maxfail:1")
	if err != nil {
		t.Fatal(err)
	}
	in := New(spec)
	pool := &runner.Pool{
		Jobs:        1,
		JobDeadline: 30 * time.Millisecond,
		Retry:       runner.RetryPolicy{MaxAttempts: 2, Base: time.Millisecond},
	}
	start := time.Now()
	res := pool.Run(context.Background(), in.Wrap(testJobs(1)))[0]
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hung job blocked %v; the injected hang ignored its context", elapsed)
	}
	if res.Err != nil {
		t.Errorf("result = %+v, want recovery on the post-hang attempt", res.Err)
	}
	if got := in.counts()["hang"]; got != 1 {
		t.Errorf("recorded %d hang events, want 1", got)
	}
}

// TestCorruptCache checks seeded cache sabotage is caught entry by entry
// by the quarantine path.
func TestCorruptCache(t *testing.T) {
	for _, mode := range []string{"bitflip", "truncate"} {
		spec, err := Parse(fmt.Sprintf("seed:4;corrupt:2,%s", mode))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		cache := &runner.Cache{Dir: dir}
		fps := make([]string, 4)
		for i := range fps {
			key := runner.Key{Kind: "chaos-test", Scenario: fmt.Sprintf("job%d", i)}
			fps[i] = cache.Fingerprint(key)
			if err := cache.Put(fps[i], key, []byte(fmt.Sprintf("payload %d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := cache.Flush(); err != nil {
			t.Fatal(err)
		}
		in := New(spec)
		n, err := in.CorruptCache(dir)
		if err != nil || n != 2 {
			t.Fatalf("mode %s: CorruptCache = %d, %v; want 2 entries mangled", mode, n, err)
		}

		misses := 0
		for _, fp := range fps {
			if _, ok := cache.Get(fp); !ok {
				misses++
			}
		}
		if misses != 2 || (&runner.Pool{Cache: cache}).Stats().CacheCorrupt != 2 {
			t.Errorf("mode %s: %d misses, %d quarantined; want both 2", mode, misses, (&runner.Pool{Cache: cache}).Stats().CacheCorrupt)
		}
		// Quarantined files are preserved for forensics, not deleted.
		quarantined, err := os.ReadDir(filepath.Join(dir, runner.CorruptDirName))
		if err != nil || len(quarantined) != 2 {
			t.Errorf("mode %s: corrupt/ holds %d files (%v), want 2", mode, len(quarantined), err)
		}
	}
}

// TestTruncateManifest checks the torn-flush injection composes with
// LoadManifest's salvage.
func TestTruncateManifest(t *testing.T) {
	spec, err := Parse("seed:6;truncate-manifest:1")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := runner.LoadManifest(path)
	for i := 0; i < 8; i++ {
		if err := m.Record(fmt.Sprintf("job%02d", i), "ffff", runner.StatusDone, nil, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.ReadFile(path)

	in := New(spec)
	cut, err := in.TruncateManifest(path)
	if err != nil || !cut {
		t.Fatalf("TruncateManifest = %v, %v; want a cut", cut, err)
	}
	after, _ := os.ReadFile(path)
	if len(after) >= len(before) {
		t.Fatalf("manifest not truncated: %d -> %d bytes", len(before), len(after))
	}

	re := runner.LoadManifest(path)
	if re.RecoveredFrom == "" {
		t.Errorf("salvage not reported after injected truncation")
	}
	recovered := 0
	for i := 0; i < 8; i++ {
		e, ok := re.Entry(fmt.Sprintf("job%02d", i))
		if !ok {
			continue
		}
		recovered++
		if e.Status != runner.StatusDone {
			t.Errorf("recovered entry job%02d has status %q", i, e.Status)
		}
	}
	if recovered == 0 || recovered >= 8 {
		t.Errorf("recovered %d entries from a mid-file cut, want some but not all", recovered)
	}
}

// TestWriters smoke-tests the log and metrics renderings.
func TestWriters(t *testing.T) {
	spec, err := Parse("seed:1;fail:1.0;maxfail:1")
	if err != nil {
		t.Fatal(err)
	}
	in := New(spec)
	pool := &runner.Pool{Jobs: 1, Retry: runner.RetryPolicy{MaxAttempts: 2, Base: time.Millisecond}}
	pool.Run(context.Background(), in.Wrap(testJobs(2)))

	var log bytes.Buffer
	if err := in.WriteLog(&log); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(log.String(), "\n"); lines != len(in.events) {
		t.Errorf("log has %d lines for %d events", lines, len(in.events))
	}
	var prom bytes.Buffer
	if err := in.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `starvesim_chaos_injected_total{kind="error"} 2`) {
		t.Errorf("metrics missing the error counter:\n%s", prom.String())
	}
	if !strings.Contains(in.Summary(), "2 error") {
		t.Errorf("summary %q missing the fault counts", in.Summary())
	}
}

// testJobs builds n deterministic jobs whose artifacts depend only on
// their index.
func testJobs(n int) []runner.Job {
	jobs := make([]runner.Job, n)
	for i := range jobs {
		id := fmt.Sprintf("job%02d", i)
		payload := []byte(fmt.Sprintf("bytes for %s: %d", id, i*i))
		jobs[i] = runner.Job{
			ID: id,
			Run: func(ctx context.Context) ([]byte, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				return payload, nil
			},
		}
	}
	return jobs
}

// bodyFaults is the number of injected body faults (error + panic +
// hang): the attempts that failed because of chaos.
func bodyFaults(in *Injector) int {
	c := in.counts()
	return c["error"] + c["panic"] + c["hang"]
}
