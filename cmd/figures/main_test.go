package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"starvation/internal/guard"
	"starvation/internal/runner"
	"starvation/internal/runner/chaos"
)

// figuresCLIEnv makes the test binary run as the figures command, so a
// test can check what main does before any section runs.
const figuresCLIEnv = "FIGURES_TEST_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(figuresCLIEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOnlyRejectsUnknownIDs pins -only's contract: an ID that names no
// section is a usage error (exit 2) that names the IDs -list prints, and
// it is refused before anything under -out is written.
func TestOnlyRejectsUnknownIDs(t *testing.T) {
	out := t.TempDir()
	summary := filepath.Join(out, "summary.md")
	if err := os.WriteFile(summary, []byte("earlier results\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-out", out, "-quick", "-only", "F3,F9")
	cmd.Env = append(os.Environ(), figuresCLIEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("figures -only F3,F9: %v, want exit status 2; stderr:\n%s", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `"F9"`) || !strings.Contains(msg, sections[0].id) {
		t.Errorf("stderr does not name the bad ID and the known ones:\n%s", msg)
	}
	if got, err := os.ReadFile(summary); err != nil || string(got) != "earlier results\n" {
		t.Errorf("summary.md = %q, %v; a refused -only must leave -out untouched", got, err)
	}
	if ents, _ := os.ReadDir(out); len(ents) != 1 {
		t.Errorf("-out holds %d entries after a refused -only, want only summary.md", len(ents))
	}

	if filter, err := parseOnly(" F3 ,T5", sections); err != nil || !filter["F3"] || !filter["T5"] || len(filter) != 2 {
		t.Errorf("parseOnly(known IDs) = %v, %v", filter, err)
	}
}

// withDirs points the output flags at temp dirs for one test.
func withDirs(t *testing.T) (out, obs string) {
	t.Helper()
	out, obs = t.TempDir(), t.TempDir()
	oldOut, oldObs := *outDir, *obsDir
	*outDir, *obsDir = out, obs
	t.Cleanup(func() { *outDir, *obsDir = oldOut, oldObs })
	return out, obs
}

// fakeSections builds a deterministic synthetic batch: every section
// emits summary rows, console text, and data files derived from its ID,
// and sleeps a varying amount so parallel completion order scrambles.
func fakeSections(n int) []batchSection {
	secs := make([]batchSection, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("S%02d", i)
		sleep := time.Duration((n-i)%4) * time.Millisecond
		secs[i] = batchSection{id, func(_ context.Context, r *reporter) {
			time.Sleep(sleep)
			r.section(id, "synthetic section "+id)
			r.row("- value %s = %d", id, len(id)*7)
			r.print("console-only plot for " + id)
			r.save(id+"_data.csv", func(w io.Writer) error {
				_, err := fmt.Fprintf(w, "id,sq\n%s,%d\n", id, i*i)
				return err
			})
		}}
	}
	return secs
}

// snapshotTree reads every regular file under dir into a map keyed by
// relative path, skipping the cache (whose entry mtimes differ by design).
func snapshotTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".cache" || d.Name() == ".chaos" {
				return fs.SkipDir
			}
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatalf("snapshot %s: %v", dir, err)
	}
	return files
}

// runDriver executes the full driver path — jobs, pool, errors.json,
// assemble — exactly as main does, into the current *outDir.
func runDriver(t *testing.T, secs []batchSection, w io.Writer, pool *runner.Pool) ([]runner.JobResult, guard.Manifest) {
	t.Helper()
	results := runBatch(context.Background(), pool, sectionJobs(secs, nil))
	man := collectErrors(results)
	if err := man.WriteFile(filepath.Join(*outDir, "errors.json")); err != nil {
		t.Fatalf("errors.json: %v", err)
	}
	if err := assemble(w, results); err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return results, man
}

// TestParallelMatchesSequential is the parity contract of the tentpole:
// a batch at -jobs 8 produces a byte-identical output tree (summary.md,
// errors.json, every data file) and console transcript to the same batch
// at -jobs 1.
func TestParallelMatchesSequential(t *testing.T) {
	oldNow := timeNow
	timeNow = func() time.Time { return time.Date(2022, 8, 22, 9, 0, 0, 0, time.UTC) }
	defer func() { timeNow = oldNow }()

	secs := fakeSections(12)
	run := func(jobs int) (map[string]string, string) {
		out, _ := withDirs(t)
		var console strings.Builder
		runDriver(t, secs, &console, &runner.Pool{Jobs: jobs})
		return snapshotTree(t, out), console.String()
	}
	seqTree, seqConsole := run(1)
	parTree, parConsole := run(8)

	if len(seqTree) != len(parTree) {
		t.Fatalf("tree sizes differ: sequential %d files, parallel %d", len(seqTree), len(parTree))
	}
	for rel, want := range seqTree {
		got, ok := parTree[rel]
		if !ok {
			t.Errorf("parallel run missing %s", rel)
			continue
		}
		if got != want {
			t.Errorf("%s differs between -jobs 1 and -jobs 8:\n seq: %q\n par: %q", rel, want, got)
		}
	}
	if seqConsole != parConsole {
		t.Errorf("console transcript differs between -jobs 1 and -jobs 8")
	}
	if len(seqTree) < 14 { // 12 data files + summary.md + errors.json
		t.Errorf("sequential tree has only %d files: %v", len(seqTree), seqTree)
	}
}

// TestWarmCacheRerun checks the caching contract: a second identical
// batch re-simulates zero sections yet reproduces the output tree
// byte-for-byte.
func TestWarmCacheRerun(t *testing.T) {
	oldNow := timeNow
	timeNow = func() time.Time { return time.Date(2022, 8, 22, 9, 0, 0, 0, time.UTC) }
	defer func() { timeNow = oldNow }()

	out, _ := withDirs(t)
	cache := &runner.Cache{Dir: filepath.Join(out, ".cache")}
	secs := fakeSections(6)

	cold := &runner.Pool{Jobs: 2, Cache: cache}
	runDriver(t, secs, io.Discard, cold)
	coldTree := snapshotTree(t, out)
	if st := cold.Stats(); st.Executed != 6 || st.CacheHits != 0 {
		t.Fatalf("cold stats = %+v, want 6 executed", st)
	}

	warm := &runner.Pool{Jobs: 2, Cache: cache}
	runDriver(t, secs, io.Discard, warm)
	if st := warm.Stats(); st.Executed != 0 || st.CacheHits != 6 {
		t.Errorf("warm stats = %+v, want 0 executed 6 cached", st)
	}
	warmTree := snapshotTree(t, out)
	for rel, want := range coldTree {
		if warmTree[rel] != want {
			t.Errorf("%s differs after warm rerun", rel)
		}
	}
}

// TestWarmRerunsKeepManifest pins the batch-end fold: the cold run's
// manifest.json is a bare snapshot, and warm reruns of the same -out —
// which restore every section — leave it byte-identical.
func TestWarmRerunsKeepManifest(t *testing.T) {
	out, _ := withDirs(t)
	cache := &runner.Cache{Dir: filepath.Join(out, ".cache")}
	manPath := filepath.Join(out, "manifest.json")
	secs := fakeSections(6)
	run := func() []byte {
		t.Helper()
		runDriver(t, secs, io.Discard, &runner.Pool{Jobs: 2, Cache: cache, Manifest: runner.LoadManifest(manPath)})
		data, err := os.ReadFile(manPath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cold := run()
	var snap struct {
		Schema int                             `json:"schema"`
		Jobs   map[string]runner.ManifestEntry `json:"jobs"`
	}
	if err := json.Unmarshal(cold, &snap); err != nil || len(snap.Jobs) != len(secs) {
		t.Fatalf("cold manifest is not a bare snapshot of %d sections (%v):\n%s", len(secs), err, cold)
	}
	for i := 1; i <= 3; i++ {
		if warm := run(); string(warm) != string(cold) {
			t.Errorf("warm rerun %d changed manifest.json:\n%s\n--- cold:\n%s", i, warm, cold)
		}
	}
}

// TestPartialThenFullBatch checks resume granularity at the driver level:
// after a batch restricted by -only, a full batch executes exactly the
// sections the first run skipped.
func TestPartialThenFullBatch(t *testing.T) {
	out, _ := withDirs(t)
	cache := &runner.Cache{Dir: filepath.Join(out, ".cache")}
	manPath := filepath.Join(out, "manifest.json")
	secs := fakeSections(5)

	partial := &runner.Pool{Jobs: 2, Cache: cache, Manifest: runner.LoadManifest(manPath)}
	partial.Run(context.Background(), sectionJobs(secs, map[string]bool{"S00": true, "S03": true}))
	if st := partial.Stats(); st.Executed != 2 {
		t.Fatalf("partial stats = %+v, want 2 executed", st)
	}

	full := &runner.Pool{Jobs: 2, Cache: cache, Manifest: runner.LoadManifest(manPath)}
	runDriver(t, secs, io.Discard, full)
	if st := full.Stats(); st.Executed != 3 || st.CacheHits != 2 {
		t.Errorf("full stats = %+v, want 3 executed 2 cached", st)
	}
	for _, sec := range secs {
		if _, ok := full.Manifest.Entry(sec.id); !ok {
			t.Errorf("manifest lacks %s", sec.id)
		}
	}
}

// TestBatchDegradesGracefully forces one panicking section and one stuck
// section into a batch and checks the remaining sections still run, the
// failures land in errors.json with the right kinds, and the assembled
// summary carries the healthy sections.
func TestBatchDegradesGracefully(t *testing.T) {
	out, _ := withDirs(t)
	release := make(chan struct{})
	defer close(release)
	secs := []batchSection{
		{"ok-before", func(_ context.Context, r *reporter) { r.row("- ok-before ran") }},
		{"boom", func(context.Context, *reporter) { panic("forced failure") }},
		{"stuck", func(context.Context, *reporter) { <-release }},
		{"ok-after", func(_ context.Context, r *reporter) { r.row("- ok-after ran") }},
	}
	pool := &runner.Pool{Jobs: 1, JobDeadline: 50 * time.Millisecond}
	_, man := runDriver(t, secs, io.Discard, pool)

	if len(man.Errors) != 2 {
		t.Fatalf("manifest has %d errors, want 2: %+v", len(man.Errors), man.Errors)
	}
	if man.Errors[0].Scenario != "boom" || man.Errors[0].Kind != "panic" {
		t.Errorf("first error = %+v, want scenario boom kind panic", man.Errors[0])
	}
	if !strings.Contains(man.Errors[0].Msg, "forced failure") {
		t.Errorf("panic message %q does not carry the panic value", man.Errors[0].Msg)
	}
	if man.Errors[0].Stack == "" {
		t.Errorf("panic error has no stack trace")
	}
	if man.Errors[1].Scenario != "stuck" || man.Errors[1].Kind != guard.KindDeadline {
		t.Errorf("second error = %+v, want scenario stuck kind deadline", man.Errors[1])
	}

	sum, err := os.ReadFile(filepath.Join(out, "summary.md"))
	if err != nil {
		t.Fatalf("summary.md: %v", err)
	}
	for _, want := range []string{"ok-before ran", "ok-after ran"} {
		if !strings.Contains(string(sum), want) {
			t.Errorf("summary missing %q: sections after a failure must still run", want)
		}
	}

	data, err := os.ReadFile(filepath.Join(out, "errors.json"))
	if err != nil {
		t.Fatalf("errors.json: %v", err)
	}
	var got guard.Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("errors.json is not valid JSON: %v", err)
	}
	if len(got.Errors) != 2 {
		t.Fatalf("round-tripped manifest has %d errors, want 2", len(got.Errors))
	}
}

// TestCancelledSectionNotCached pins the truncation contract: a section
// whose context is cancelled mid-run halts its simulations early, so its
// (truncated) output must be recorded as a failure — never written to
// the output tree or the cache — and must re-execute on the next batch.
func TestCancelledSectionNotCached(t *testing.T) {
	out, _ := withDirs(t)
	cache := &runner.Cache{Dir: filepath.Join(out, ".cache")}
	batchCtx, interrupt := context.WithCancel(context.Background())
	defer interrupt()
	secs := []batchSection{
		{"truncated", func(ctx context.Context, r *reporter) {
			r.section("truncated", "halts mid-run")
			interrupt()  // the user hits Ctrl-C mid-section
			<-ctx.Done() // the sim event loop notices and returns early
			r.row("- partial data from a truncated run")
		}},
	}
	pool := &runner.Pool{Jobs: 1, Cache: cache}
	results := pool.Run(batchCtx, sectionJobs(secs, nil))
	if e := results[0].Err; e == nil || e.Kind != guard.KindCancelled {
		t.Fatalf("truncated section = %+v, want a cancellation RunError", e)
	}
	if man := collectErrors(results); len(man.Errors) != 1 {
		t.Errorf("errors manifest has %d entries, want 1", len(man.Errors))
	}

	// A fresh batch over the same cache must re-simulate, not restore.
	again := &runner.Pool{Jobs: 1, Cache: cache}
	res2 := again.Run(context.Background(), sectionJobs([]batchSection{
		{"truncated", func(_ context.Context, r *reporter) {
			r.section("truncated", "halts mid-run")
			r.row("- complete data this time")
		}},
	}, nil))
	if res2[0].Err != nil || res2[0].Cached {
		t.Errorf("re-run = %+v, want fresh execution (truncated result must not have been cached)", res2[0])
	}
}

// TestBatchCleanManifest checks a failure-free batch writes an explicit
// empty error list, distinguishing "clean" from "never ran".
func TestBatchCleanManifest(t *testing.T) {
	out, _ := withDirs(t)
	secs := []batchSection{
		{"fine", func(_ context.Context, r *reporter) { r.row("- fine") }},
	}
	_, man := runDriver(t, secs, io.Discard, &runner.Pool{Jobs: 1})
	if len(man.Errors) != 0 {
		t.Fatalf("unexpected errors: %+v", man.Errors)
	}
	data, err := os.ReadFile(filepath.Join(out, "errors.json"))
	if err != nil {
		t.Fatalf("errors.json: %v", err)
	}
	if !strings.Contains(string(data), `"errors": []`) {
		t.Errorf("empty manifest = %q, want explicit empty errors list", data)
	}
}

// TestReporterSaveRecoverable checks save failures surface as panics (so
// the runner can record them) rather than killing the process.
func TestReporterSaveRecoverable(t *testing.T) {
	withDirs(t)
	secs := []batchSection{
		{"save-fail", func(_ context.Context, r *reporter) {
			r.save("x.csv", func(io.Writer) error { return fmt.Errorf("serialization broke") })
		}},
	}
	results := (&runner.Pool{Jobs: 1}).Run(context.Background(), sectionJobs(secs, nil))
	e := results[0].Err
	if e == nil || e.Kind != "panic" || !strings.Contains(e.Msg, "serialization broke") {
		t.Fatalf("failed save: got %+v, want captured panic", e)
	}
}

// TestSectionsFilter checks -only filtering skips unwanted sections
// before any job is built.
func TestSectionsFilter(t *testing.T) {
	withDirs(t)
	var ran []string
	secs := []batchSection{
		{"a", func(context.Context, *reporter) { ran = append(ran, "a") }},
		{"b", func(context.Context, *reporter) { ran = append(ran, "b") }},
	}
	jobs := sectionJobs(secs, map[string]bool{"b": true})
	if len(jobs) != 1 || jobs[0].ID != "b" {
		t.Fatalf("filtered jobs = %+v, want [b]", jobs)
	}
	(&runner.Pool{Jobs: 1}).Run(context.Background(), jobs)
	if len(ran) != 1 || ran[0] != "b" {
		t.Fatalf("ran %v, want [b]", ran)
	}
}

// TestObsFilesRouted checks a section's Obs-flagged files land in the
// -obs directory while plain files land in -out.
func TestObsFilesRouted(t *testing.T) {
	out, obsOut := withDirs(t)
	secs := []batchSection{
		{"routed", func(_ context.Context, r *reporter) {
			r.save("plain.csv", func(w io.Writer) error { _, err := io.WriteString(w, "a,b\n"); return err })
			r.files = append(r.files, artifactFile{Name: "trace_events.jsonl", Obs: true, Data: []byte("{}\n")})
		}},
	}
	runDriver(t, secs, io.Discard, &runner.Pool{Jobs: 1})
	if _, err := os.Stat(filepath.Join(out, "plain.csv")); err != nil {
		t.Errorf("plain file not in -out: %v", err)
	}
	if _, err := os.Stat(filepath.Join(obsOut, "trace_events.jsonl")); err != nil {
		t.Errorf("obs file not in -obs: %v", err)
	}
}

// TestChaosParity is the capstone robustness invariant: a batch run
// under injected orchestration faults — failing, panicking, and hanging
// section bodies, corrupted cache entries, a truncated manifest — must
// converge, through retries and quarantine, to an output tree and
// console transcript byte-identical to the fault-free run.
func TestChaosParity(t *testing.T) {
	oldNow := timeNow
	timeNow = func() time.Time { return time.Date(2022, 8, 22, 9, 0, 0, 0, time.UTC) }
	defer func() { timeNow = oldNow }()

	secs := fakeSections(12)

	// Fault-free baseline.
	outClean, _ := withDirs(t)
	var cleanConsole strings.Builder
	runDriver(t, secs, &cleanConsole, &runner.Pool{Jobs: 4})
	cleanTree := snapshotTree(t, outClean)

	// Chaos run: a cold pass under body faults, then sabotage of the
	// persisted state, then a warm pass that must still converge.
	spec, err := chaos.Parse("seed:1;fail:0.25;panic:0.15;hang:0.15,50ms;slow:0.2,2ms;corrupt:2;truncate-manifest:1")
	if err != nil {
		t.Fatal(err)
	}
	in := chaos.New(spec)
	outChaos, _ := withDirs(t)
	cacheDir := filepath.Join(outChaos, ".cache")
	maniPath := filepath.Join(t.TempDir(), "manifest.json")
	retry := runner.RetryPolicy{MaxAttempts: spec.RetryAttempts(), Seed: spec.Seed, Base: time.Millisecond}

	var events []runner.ProgressEvent
	progress := func(ev runner.ProgressEvent) { events = append(events, ev) } // pool serializes callbacks

	cold := &runner.Pool{Jobs: 4, Cache: &runner.Cache{Dir: cacheDir},
		Manifest: runner.LoadManifest(maniPath), Retry: retry, Progress: progress}
	coldResults := cold.Run(context.Background(), in.Wrap(sectionJobs(secs, nil)))
	if man := collectErrors(coldResults); len(man.Errors) != 0 {
		t.Fatalf("cold chaos pass failed terminally: %+v", man.Errors)
	}

	if _, err := in.CorruptCache(cacheDir); err != nil {
		t.Fatalf("CorruptCache: %v", err)
	}
	if cut, err := in.TruncateManifest(maniPath); err != nil || !cut {
		t.Fatalf("TruncateManifest = %v, %v", cut, err)
	}
	manifest := runner.LoadManifest(maniPath)
	if manifest.RecoveredFrom == "" {
		t.Errorf("truncated manifest was not salvaged")
	}

	warm := &runner.Pool{Jobs: 4, Cache: &runner.Cache{Dir: cacheDir},
		Manifest: manifest, Retry: retry, Progress: progress}
	warmResults := warm.Run(context.Background(), in.Wrap(sectionJobs(secs, nil)))
	man := collectErrors(warmResults)
	if err := man.WriteFile(filepath.Join(outChaos, "errors.json")); err != nil {
		t.Fatal(err)
	}
	var chaosConsole strings.Builder
	if err := assemble(&chaosConsole, warmResults); err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if len(man.Errors) != 0 {
		t.Fatalf("warm chaos pass failed terminally: %+v", man.Errors)
	}

	// Parity: the chaos tree and transcript match the fault-free run
	// byte for byte.
	chaosTree := snapshotTree(t, outChaos)
	if len(chaosTree) != len(cleanTree) {
		t.Errorf("tree sizes differ: clean %d files, chaos %d", len(cleanTree), len(chaosTree))
	}
	for rel, want := range cleanTree {
		if got, ok := chaosTree[rel]; !ok {
			t.Errorf("chaos run missing %s", rel)
		} else if got != want {
			t.Errorf("%s differs between the fault-free and chaos runs", rel)
		}
	}
	if chaosConsole.String() != cleanConsole.String() {
		t.Errorf("console transcript differs between the fault-free and chaos runs")
	}

	// The faults must actually have fired: enough body failures to cover
	// >=10%% of the batch, at least one hang, at least one corruption.
	counts := chaosCounts(t, in)
	bodyFaults := counts["error"] + counts["panic"] + counts["hang"]
	if bodyFaults < 2 {
		t.Errorf("only %d injected body faults over 12 sections, want >= 2 (10%% of the batch): %v",
			bodyFaults, counts)
	}
	if counts["hang"] < 1 {
		t.Errorf("no hung job injected: %v", counts)
	}
	if counts["corrupt"] < 1 {
		t.Errorf("no cache corruption injected: %v", counts)
	}

	// ... and be visible in progress events and the Prometheus counters.
	retriesSeen := 0
	for _, ev := range events {
		if ev.Kind == runner.ProgressRetry {
			retriesSeen++
			if ev.Err == nil || ev.Attempt < 1 {
				t.Errorf("retry event carries no failure context: %+v", ev)
			}
		}
	}
	if retriesSeen == 0 {
		t.Errorf("no retry progress events despite %d injected faults", bodyFaults)
	}
	// The warm pass re-simulates exactly the quarantined entries and
	// restores every other section from the cache.
	if st := warm.Stats(); st.CacheCorrupt < 1 || st.Executed != st.CacheCorrupt ||
		st.CacheHits != int64(len(secs))-st.CacheCorrupt || st.Failed != 0 {
		t.Errorf("warm stats = %+v, want >= 1 quarantined, as many re-run, the other %d sections cached, none failed",
			st, len(secs))
	}
	var prom strings.Builder
	if err := warm.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"starvesim_runner_retries_total", "starvesim_runner_cache_corrupt_total"} {
		if !strings.Contains(prom.String(), metric) {
			t.Errorf("Prometheus export missing %s", metric)
		}
	}
}

// TestListSectionsAnnotated checks -list surfaces the manifest: outcome
// and attempt counts per section, plus the salvage note after damage.
func TestListSectionsAnnotated(t *testing.T) {
	m := runner.LoadManifest("") // in-memory
	if err := m.Record("F1", "aaaa", runner.StatusDone, nil, 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Record("F3", "bbbb", "failed",
		&guard.RunError{Scenario: "F3", Kind: guard.KindDeadline, Msg: "slow"}, 1, nil); err != nil {
		t.Fatal(err)
	}
	m.RecoveredFrom = "recovered 2 complete entries from damaged manifest (99 bytes)"

	var buf strings.Builder
	listSections(&buf, m)
	out := buf.String()
	for _, want := range []string{
		"# manifest: recovered 2 complete entries",
		"F1\t[done, 3 attempts]",
		"F3\t[failed]",
		"X-POP\n", // unrecorded sections list bare
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

// TestSectionKeySensitivity pins what invalidates a section's cache
// entry: the -quick flag does, the output directory does not.
func TestSectionKeySensitivity(t *testing.T) {
	withDirs(t)
	base := sectionKey("F1").Fingerprint(0)

	oldQuick := *quick
	*quick = !*quick
	quickFP := sectionKey("F1").Fingerprint(0)
	*quick = oldQuick
	if quickFP == base {
		t.Errorf("-quick does not change the section fingerprint")
	}

	oldOut := *outDir
	*outDir = filepath.Join(*outDir, "elsewhere")
	outFP := sectionKey("F1").Fingerprint(0)
	*outDir = oldOut
	if outFP != base {
		t.Errorf("-out changed the section fingerprint; artifacts are location-independent and must stay cached")
	}
}

// chaosCounts reads the injector's per-kind counts back from its
// Prometheus exposition, the .chaos/metrics.txt a chaos batch writes.
func chaosCounts(t *testing.T, in *chaos.Injector) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := in.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		var kind string
		var n int
		if _, err := fmt.Sscanf(line, "starvesim_chaos_injected_total{kind=%q} %d", &kind, &n); err == nil {
			counts[kind] = n
		}
	}
	return counts
}
