package main

import (
	"bufio"
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
// test can check the exit status and the signal handling of a real
// process.
const figuresCLIEnv = "FIGURES_TEST_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(figuresCLIEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// figures runs the command in a child process and returns its exit
// status and standard error.
func figures(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), figuresCLIEnv+"=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("figures %v: %v", args, err)
	}
	return code, errb.String()
}

// readErrors decodes the errors.json a batch wrote into out.
func readErrors(t *testing.T, out string) guard.Manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(out, "errors.json"))
	if err != nil {
		t.Fatalf("errors.json: %v", err)
	}
	var man guard.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatalf("errors.json is not valid JSON: %v", err)
	}
	return man
}

// TestExitStatus pins the package comment's contract: 2 for a malformed
// invocation, refused before anything under -out is written, and 1 for a
// batch with a failed section, recorded in errors.json.
func TestExitStatus(t *testing.T) {
	out := t.TempDir()
	for _, tc := range []struct {
		args   []string
		stderr string // a whole line of standard error
	}{
		{[]string{"-only", "F3,F9"}, `figures: -only: unknown section "F9" (sections: F1, F3, `},
		{[]string{"-chaos", "bogus:1"}, `figures: chaos: unknown clause "bogus"`},
		{[]string{"-obs", out}, "flag provided but not defined: -obs"},
		{[]string{"-retries", "3"}, "flag provided but not defined: -retries"},
		// The flag package stops at the first non-flag, so -quick would be
		// dropped without a word.
		{[]string{"-only", "F1", "stray", "-quick"}, `figures: unexpected argument "stray"`},
	} {
		args := append([]string{"-out", out}, tc.args...)
		if code, errOut := figures(t, args...); code != 2 || !strings.Contains("\n"+errOut, "\n"+tc.stderr) {
			t.Errorf("figures %v: exit %d, stderr %q; want 2, %q", tc.args, code, errOut, tc.stderr)
		}
	}
	if ents, _ := os.ReadDir(out); len(ents) != 0 {
		t.Errorf("-out holds %d entries after refused invocations, want none", len(ents))
	}

	code, errOut := figures(t, "-out", out, "-deadline", "1ms", "-no-cache", "-only", "F1")
	want := fmt.Sprintf("figures: 1 section(s) failed; see %s\n", filepath.Join(out, "errors.json"))
	if code != 1 || !strings.Contains(errOut, want) {
		t.Errorf("-deadline 1ms: exit %d, stderr %q; want 1, %q", code, errOut, want)
	}
	if man := readErrors(t, out); len(man.Errors) != 1 || man.Errors[0].Scenario != "F1" || man.Errors[0].Kind != guard.KindDeadline {
		t.Errorf("errors.json = %+v, want one F1 deadline error", man.Errors)
	}
}

// TestInterruptExitStatus pins exit 3: a SIGINT while a section runs
// drains the batch — errors.json records the cancelled section — and the
// command says so.
func TestInterruptExitStatus(t *testing.T) {
	out := t.TempDir()
	cmd := exec.Command(os.Args[0], "-out", out, "-no-cache", "-only", "F3")
	cmd.Env = append(os.Environ(), figuresCLIEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(stderr)
	// The first progress line means the batch is under way with the
	// interrupt handler installed.
	if line, err := r.ReadString('\n'); err != nil || line != "=== F3: running\n" {
		_ = cmd.Process.Kill()
		t.Fatalf("first stderr line %q, %v; want the running line", line, err)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(r)
	code := 0
	var exit *exec.ExitError
	if err := cmd.Wait(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if want := "figures: interrupted; partial results flushed, re-run to resume\n"; code != 3 || !strings.Contains(string(rest), want) {
		t.Errorf("interrupted batch: exit %d, stderr tail %q; want 3, %q", code, rest, want)
	}
	if man := readErrors(t, out); len(man.Errors) != 1 || man.Errors[0].Kind != guard.KindCancelled {
		t.Errorf("errors.json = %+v, want one cancelled section", man.Errors)
	}
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
	code, msg := figures(t, "-out", out, "-quick", "-only", "F3,F9")
	if code != 2 {
		t.Fatalf("figures -only F3,F9: exit %d, want 2; stderr:\n%s", code, msg)
	}
	if !strings.Contains(msg, `"F9"`) || !strings.Contains(msg, sections[0].id) {
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
// relative path, skipping what the CI parity diff skips: the cache and
// the chaos log (whose contents differ by design) and the manifest (a
// record of how each section was obtained, not an output).
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
		if d.Name() == "manifest.json" {
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

// batchStats is the closing line of a batch's stdout.
type batchStats struct{ simulated, cached, failed, retried, quarantined int }

// runBatch runs secs through batch, the function main runs, and returns
// the console transcript, the stats line parsed — in the format
// bench/figures.go reads — and batch's error.
func runBatch(t *testing.T, ctx context.Context, cfg config, secs []batchSection) (string, batchStats, error) {
	t.Helper()
	var stdout strings.Builder
	err := batch(ctx, cfg, secs, &stdout, io.Discard)
	out := strings.TrimSuffix(stdout.String(), "\n")
	i := strings.LastIndex(out, "\n")
	var st batchStats
	var summary string
	if _, serr := fmt.Sscanf(out[i+1:], "%d simulated, %d cached, %d failed, %d retried, %d quarantined; summary written to %s",
		&st.simulated, &st.cached, &st.failed, &st.retried, &st.quarantined, &summary); serr != nil || i < 0 ||
		summary != filepath.Join(cfg.out, "summary.md") {
		t.Fatalf("stats line %q: %v", out[i+1:], serr)
	}
	return out[:i], st, err
}

// pinSummaryTime pins summary.md's timestamp so whole trees compare.
func pinSummaryTime(t *testing.T) { t.Setenv("SOURCE_DATE_EPOCH", "1661158800") }

// TestParallelMatchesSequential is the parity contract of the driver: a
// batch at -jobs 8 produces a byte-identical output tree (summary.md,
// errors.json, every data file) and console transcript to the same batch
// at -jobs 1.
func TestParallelMatchesSequential(t *testing.T) {
	pinSummaryTime(t)
	secs := fakeSections(12)
	run := func(jobs int) (map[string]string, string) {
		out := t.TempDir()
		console, _, err := runBatch(t, context.Background(), config{out: out, jobs: jobs}, secs)
		if err != nil {
			t.Fatal(err)
		}
		return snapshotTree(t, out), console
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
	pinSummaryTime(t)
	out := t.TempDir()
	cfg := config{out: out, jobs: 2, cache: filepath.Join(out, ".cache")}
	secs := fakeSections(6)

	if _, st, err := runBatch(t, context.Background(), cfg, secs); err != nil || st.simulated != 6 || st.cached != 0 {
		t.Fatalf("cold batch = %+v, %v; want 6 simulated", st, err)
	}
	coldTree := snapshotTree(t, out)

	if _, st, err := runBatch(t, context.Background(), cfg, secs); err != nil || st.simulated != 0 || st.cached != 6 {
		t.Errorf("warm batch = %+v, %v; want 0 simulated 6 cached", st, err)
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
	out := t.TempDir()
	cfg := config{out: out, jobs: 2, cache: filepath.Join(out, ".cache")}
	manPath := filepath.Join(out, "manifest.json")
	secs := fakeSections(6)
	run := func() []byte {
		t.Helper()
		if _, _, err := runBatch(t, context.Background(), cfg, secs); err != nil {
			t.Fatal(err)
		}
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
	out := t.TempDir()
	cfg := config{out: out, jobs: 2, cache: filepath.Join(out, ".cache")}
	secs := fakeSections(5)

	partial := cfg
	partial.only = map[string]bool{"S00": true, "S03": true}
	if _, st, err := runBatch(t, context.Background(), partial, secs); err != nil || st.simulated != 2 {
		t.Fatalf("partial batch = %+v, %v; want 2 simulated", st, err)
	}

	if _, st, err := runBatch(t, context.Background(), cfg, secs); err != nil || st.simulated != 3 || st.cached != 2 {
		t.Errorf("full batch = %+v, %v; want 3 simulated 2 cached", st, err)
	}
	manifest := runner.LoadManifest(filepath.Join(out, "manifest.json"))
	for _, sec := range secs {
		if _, ok := manifest.Entry(sec.id); !ok {
			t.Errorf("manifest lacks %s", sec.id)
		}
	}
}

// TestBatchDegradesGracefully forces one panicking section and one stuck
// section into a batch and checks the remaining sections still run, the
// failures land in errors.json with the right kinds, the assembled
// summary carries the healthy sections, and the batch fails with 1.
func TestBatchDegradesGracefully(t *testing.T) {
	out := t.TempDir()
	release := make(chan struct{})
	defer close(release)
	secs := []batchSection{
		{"ok-before", func(_ context.Context, r *reporter) { r.row("- ok-before ran") }},
		{"boom", func(context.Context, *reporter) { panic("forced failure") }},
		{"stuck", func(context.Context, *reporter) { <-release }},
		{"ok-after", func(_ context.Context, r *reporter) { r.row("- ok-after ran") }},
	}
	_, st, err := runBatch(t, context.Background(), config{out: out, jobs: 1, deadline: 50 * time.Millisecond}, secs)
	var ee *exitError
	if errors.As(err, &ee) || err == nil || !strings.Contains(err.Error(), "2 section(s) failed") {
		t.Errorf("batch error = %v, want the runtime failure (status 1) naming 2 failed sections", err)
	}
	if st.failed != 2 || st.simulated != 2 {
		t.Errorf("stats = %+v, want 2 simulated 2 failed", st)
	}

	man := readErrors(t, out)
	if len(man.Errors) != 2 {
		t.Fatalf("errors.json has %d errors, want 2: %+v", len(man.Errors), man.Errors)
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
}

// TestCancelledSectionNotCached pins the truncation contract: a section
// whose context is cancelled mid-run halts its simulations early, so its
// (truncated) output must be recorded as a failure — never written to
// the output tree or the cache — the batch must fail with 3, and the
// section must re-execute on the next batch.
func TestCancelledSectionNotCached(t *testing.T) {
	out := t.TempDir()
	cfg := config{out: out, jobs: 1, cache: filepath.Join(out, ".cache")}
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
	_, _, err := runBatch(t, batchCtx, cfg, secs)
	var ee *exitError
	if !errors.As(err, &ee) || ee.code != 3 {
		t.Errorf("interrupted batch error = %v, want exit status 3", err)
	}
	if man := readErrors(t, out); len(man.Errors) != 1 || man.Errors[0].Kind != guard.KindCancelled {
		t.Fatalf("errors.json = %+v, want one cancellation RunError", man.Errors)
	}
	if sum, _ := os.ReadFile(filepath.Join(out, "summary.md")); strings.Contains(string(sum), "partial data") {
		t.Errorf("summary.md carries the truncated section:\n%s", sum)
	}

	// A fresh batch over the same cache must re-simulate, not restore.
	_, st, err := runBatch(t, context.Background(), cfg, []batchSection{
		{"truncated", func(_ context.Context, r *reporter) {
			r.section("truncated", "halts mid-run")
			r.row("- complete data this time")
		}},
	})
	if err != nil || st.simulated != 1 || st.cached != 0 {
		t.Errorf("re-run = %+v, %v; want 1 simulated (truncated result must not have been cached)", st, err)
	}
}

// TestBatchCleanManifest checks a failure-free batch writes an explicit
// empty error list, distinguishing "clean" from "never ran".
func TestBatchCleanManifest(t *testing.T) {
	out := t.TempDir()
	secs := []batchSection{
		{"fine", func(_ context.Context, r *reporter) { r.row("- fine") }},
	}
	if _, _, err := runBatch(t, context.Background(), config{out: out, jobs: 1}, secs); err != nil {
		t.Fatalf("clean batch: %v", err)
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
	secs := []batchSection{
		{"save-fail", func(_ context.Context, r *reporter) {
			r.save("x.csv", func(io.Writer) error { return fmt.Errorf("serialization broke") })
		}},
	}
	results := (&runner.Pool{Jobs: 1}).Run(context.Background(), sectionJobs(secs, nil, false))
	e := results[0].Err
	if e == nil || e.Kind != "panic" || !strings.Contains(e.Msg, "serialization broke") {
		t.Fatalf("failed save: got %+v, want captured panic", e)
	}
}

// TestSectionsFilter checks -only filtering skips unwanted sections
// before any job is built.
func TestSectionsFilter(t *testing.T) {
	var ran []string
	secs := []batchSection{
		{"a", func(context.Context, *reporter) { ran = append(ran, "a") }},
		{"b", func(context.Context, *reporter) { ran = append(ran, "b") }},
	}
	jobs := sectionJobs(secs, map[string]bool{"b": true}, false)
	if len(jobs) != 1 || jobs[0].ID != "b" {
		t.Fatalf("filtered jobs = %+v, want [b]", jobs)
	}
	(&runner.Pool{Jobs: 1}).Run(context.Background(), jobs)
	if len(ran) != 1 || ran[0] != "b" {
		t.Fatalf("ran %v, want [b]", ran)
	}
}

// TestChaosParity is the capstone robustness invariant: a batch run
// under injected orchestration faults — failing, panicking, and hanging
// section bodies, corrupted cache entries, a truncated manifest — must
// converge, through retries and quarantine, to an output tree and
// console transcript byte-identical to the fault-free run.
func TestChaosParity(t *testing.T) {
	pinSummaryTime(t)
	secs := fakeSections(12)

	// Fault-free baseline.
	outClean := t.TempDir()
	cleanConsole, _, err := runBatch(t, context.Background(), config{out: outClean, jobs: 4}, secs)
	if err != nil {
		t.Fatal(err)
	}
	cleanTree := snapshotTree(t, outClean)

	// Chaos run: a cold pass under body faults, then sabotage of the
	// persisted state, then a warm pass that must still converge.
	spec, err := chaos.Parse("seed:1;fail:0.25;panic:0.15;hang:0.15,50ms;slow:0.2,2ms;corrupt:2;truncate-manifest:1")
	if err != nil {
		t.Fatal(err)
	}
	in := chaos.New(spec)
	outChaos := t.TempDir()
	cacheDir := filepath.Join(outChaos, ".cache")
	maniPath := filepath.Join(t.TempDir(), "manifest.json")
	retry := spec.Retry()

	var events []runner.ProgressEvent
	progress := func(ev runner.ProgressEvent) { events = append(events, ev) } // pool serializes callbacks

	cold := &runner.Pool{Jobs: 4, Cache: &runner.Cache{Dir: cacheDir},
		Manifest: runner.LoadManifest(maniPath), Retry: retry, Progress: progress}
	coldResults := cold.Run(context.Background(), in.Wrap(sectionJobs(secs, nil, false)))
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
	warmResults := warm.Run(context.Background(), in.Wrap(sectionJobs(secs, nil, false)))
	man := collectErrors(warmResults)
	if err := man.WriteFile(filepath.Join(outChaos, "errors.json")); err != nil {
		t.Fatal(err)
	}
	var chaosConsole strings.Builder
	if err := assemble(&chaosConsole, warmResults, config{out: outChaos}); err != nil {
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
	if chaosConsole.String() != cleanConsole {
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
// entry: -quick does; the output directory does not, so a batch into a
// second -out over the same cache restores every section.
func TestSectionKeySensitivity(t *testing.T) {
	fp := func(quick bool) string { return sectionKey("F1", quick).Fingerprint(0) }
	if fp(true) == fp(false) {
		t.Errorf("-quick does not change the section fingerprint")
	}

	cache := filepath.Join(t.TempDir(), "cache")
	secs := fakeSections(3)
	for i, want := range []batchStats{{simulated: 3}, {cached: 3}} {
		_, st, err := runBatch(t, context.Background(), config{out: t.TempDir(), cache: cache}, secs)
		if err != nil || st != want {
			t.Errorf("batch %d into a fresh -out = %+v, %v; want %+v", i+1, st, err, want)
		}
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
