// Command figures regenerates every figure and table of the paper into an
// output directory: CSV data, ASCII previews, and a markdown summary with
// paper-vs-measured rows (the source material for EXPERIMENTS.md). The
// sections and their rows are declared in internal/paper; this command
// is the batch driver over paper.Sections.
//
// Sections are independent jobs executed on the internal/runner pool:
// they run in parallel (-jobs), their artifacts are cached by a
// content-addressed fingerprint of the section configuration (-cache /
// -no-cache), and an interrupted batch resumes from <out>/manifest.json,
// re-simulating only the sections that never completed. Because every
// section accumulates its output in memory and the driver writes files in
// declared section order after the batch, the artifacts are byte-identical
// at any -jobs value — the parity test asserts this.
//
// Progress goes to standard error, with one line for each cache entry
// found damaged and quarantined. A panic or a blown -deadline inside a
// section is recorded as a structured RunError and the batch continues
// with the next section. The collected failures are always written to
// <out>/errors.json — an empty list means a clean batch — and a non-empty
// list makes the command exit 1 after the batch completes.
//
// Interrupting the batch (SIGINT or SIGTERM) cancels its context: running
// sections stop at the next simulation tick, the manifest and errors.json
// flush, and the command exits 3 so callers can tell "interrupted after a
// clean drain" from a runtime failure (1) or a malformed invocation (2):
// an unknown flag or -only ID, a negative -jobs or -deadline, a bad -chaos
// spec, or a positional argument.
//
// The -chaos flag turns the batch into a self-test of this supervision:
// seeded faults are injected into section bodies and on-disk state (see
// internal/runner/chaos), failed sections are retried under the spec's
// retry policy, the injection log lands in <out>/.chaos/, and — because
// injected faults are capped per section below the retry budget — the
// batch must still converge to a byte-identical output tree.
//
// figures writes each run's results, not its event stream. To observe one
// of its §5 or population runs, run it alone with starvesim:
//
//	starvesim -scenario copa-single -duration 30s -trace ev.jsonl -metrics met.txt
//
// (-duration 30s is the §5 runs' -quick length, 6s the population runs'.)
//
// Usage:
//
//	figures [-out results] [-quick] [-only F3,T5] [-jobs N] [-deadline 10m]
//	        [-chaos "seed:7;fail:0.3;panic:0.1"]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"starvation/internal/guard"
	"starvation/internal/paper"
	"starvation/internal/prof"
	"starvation/internal/runner"
	"starvation/internal/runner/chaos"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// exitError is a failure that carries its exit status. Any other error
// exits 1, the runtime-failure status.
type exitError struct {
	code int
	msg  string // standard error's line; empty when already reported
}

func (e *exitError) Error() string { return e.msg }

// usage reports a malformed invocation: exit 2.
func usage(format string, args ...any) error {
	return &exitError{code: 2, msg: fmt.Sprintf("figures: "+format, args...)}
}

// run is the command: it reports what execute failed with on stderr and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	err := execute(args, stdout, stderr)
	if err == nil {
		return 0
	}
	code := 1
	var ee *exitError
	if errors.As(err, &ee) {
		code = ee.code
	}
	if msg := err.Error(); msg != "" {
		fmt.Fprintln(stderr, msg)
	}
	return code
}

// config is one batch's settings, everything that the flags decide.
type config struct {
	out      string          // -out
	quick    bool            // -quick
	only     map[string]bool // -only; nil runs every section
	jobs     int             // -jobs
	deadline time.Duration   // -deadline, per section
	cache    string          // -cache; "" under -no-cache
	chaos    *chaos.Injector // -chaos; nil injects nothing
}

// execute parses the command line and runs the batch it asks for.
func execute(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.out, "out", "results", "output directory")
	fs.BoolVar(&cfg.quick, "quick", false, "shorter runs (coarser data)")
	only := fs.String("only", "", "comma-separated experiment IDs to run")
	fs.DurationVar(&cfg.deadline, "deadline", 0, "wall-clock budget per section; a section exceeding it is abandoned and recorded in errors.json (0 = no limit)")
	fs.IntVar(&cfg.jobs, "jobs", 0, "sections to run in parallel (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache", "", "result cache directory (default <out>/.cache)")
	noCache := fs.Bool("no-cache", false, "disable the result cache (every section re-simulates)")
	list := fs.Bool("list", false, "list section IDs in run order (annotated from <out>/manifest.json when present) and exit")
	chaosArg := fs.String("chaos", "", "inject seeded orchestration faults, e.g. \"seed:7;fail:0.3;panic:0.1;corrupt:2\" (see internal/runner/chaos)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the batch to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return &exitError{code: 2} // the flag set printed the error and the usage
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if cfg.jobs < 0 {
		return usage("-jobs %d: must not be negative (0 = GOMAXPROCS)", cfg.jobs)
	}
	if cfg.deadline < 0 {
		return usage("-deadline %v: must not be negative (0 = no limit)", cfg.deadline)
	}
	if *list {
		listSections(stdout, runner.LoadManifest(filepath.Join(cfg.out, "manifest.json")))
		return nil
	}
	var err error
	if cfg.only, err = parseOnly(*only, sections); err != nil {
		return usage("%v", err)
	}
	if *chaosArg != "" {
		spec, err := chaos.Parse(*chaosArg)
		if err != nil {
			return usage("%v", err)
		}
		cfg.chaos = chaos.New(spec)
	}
	if !*noCache {
		cfg.cache = *cacheDir
		if cfg.cache == "" {
			cfg.cache = filepath.Join(cfg.out, ".cache")
		}
	}
	stopProfiles, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	// An interrupt (SIGINT or SIGTERM) cancels the batch context: running
	// sections stop at the next run tick, the manifest records what
	// completed, errors.json and the summary flush, and the command exits
	// 3. The next invocation resumes from the cache.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	return batch(ctx, cfg, sections, stdout, stderr)
}

// generated stamps the summary header. The SOURCE_DATE_EPOCH convention
// pins it from the environment, making whole output trees reproducible
// across invocations (the CI chaos drill diffs a faulted run against a
// fault-free one byte for byte).
func generated() time.Time {
	if v := os.Getenv("SOURCE_DATE_EPOCH"); v != "" {
		if sec, err := strconv.ParseInt(v, 10, 64); err == nil {
			return time.Unix(sec, 0).UTC()
		}
	}
	return time.Now()
}

// batchSection is one independently guarded unit of the batch: a
// paper.Section's ID and Run, or a test's synthetic section.
type batchSection struct {
	id  string
	run func(ctx context.Context, quick bool) paper.Artifact
}

var sections = func() []batchSection {
	secs := make([]batchSection, len(paper.Sections))
	for i, s := range paper.Sections {
		secs[i] = batchSection{s.ID, s.Run}
	}
	return secs
}()

// sectionKey is the cache identity of a section: the section ID plus
// every flag that changes its output, which is -quick alone. -out does
// not participate: artifacts name their files relative to it.
func sectionKey(id string, quick bool) runner.Key {
	return runner.Key{
		Kind:     "figures-section",
		Scenario: id,
		Params:   []string{fmt.Sprintf("quick=%v", quick)},
	}
}

// sectionJobs converts the wanted sections into runner jobs. Each job
// runs its section and serializes the artifact.
func sectionJobs(secs []batchSection, filter map[string]bool, quick bool) []runner.Job {
	var jobs []runner.Job
	for _, s := range secs {
		if len(filter) > 0 && !filter[s.id] {
			continue
		}
		run := s.run
		jobs = append(jobs, runner.Job{
			ID:  s.id,
			Key: sectionKey(s.id, quick),
			Run: func(ctx context.Context) ([]byte, error) {
				art := run(ctx, quick)
				// A cancelled context halted the section's simulations at
				// the next run tick, so the artifact is truncated: fail the
				// job instead of caching bad data.
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				return json.Marshal(art)
			},
		})
	}
	return jobs
}

// batch runs the sections cfg selects: the command after its flags,
// which the tests drive with synthetic sections. Console transcripts and
// the closing stats line go to stdout, progress to stderr, and every file
// into cfg.out. It fails with status 3 after an interrupt and with 1 when
// a section failed (each one is in errors.json).
func batch(ctx context.Context, cfg config, secs []batchSection, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	in := cfg.chaos
	manifestPath := filepath.Join(cfg.out, "manifest.json")
	if in != nil {
		// Sabotage the persisted state *before* loading it: a truncated
		// manifest must salvage its complete entries, a corrupted cache
		// entry must quarantine and re-run.
		if _, err := in.TruncateManifest(manifestPath); err != nil {
			return err
		}
	}
	manifest := runner.LoadManifest(manifestPath)
	if manifest.RecoveredFrom != "" {
		fmt.Fprintf(stderr, "figures: manifest: %s\n", manifest.RecoveredFrom)
	}
	pool := &runner.Pool{
		Jobs:        cfg.jobs,
		JobDeadline: cfg.deadline,
		Manifest:    manifest,
		Progress: func(ev runner.ProgressEvent) {
			switch ev.Kind {
			case runner.ProgressStart:
				fmt.Fprintf(stderr, "=== %s: running\n", ev.Job)
			case runner.ProgressRetry:
				fmt.Fprintf(stderr, "=== %s: attempt %d failed (%s: %s); retrying\n",
					ev.Job, ev.Attempt, ev.Err.Kind, ev.Err.Msg)
			case runner.ProgressFailed:
				fmt.Fprintf(stderr, "[%d/%d] %s: %v (continuing)\n", ev.Done, ev.Total, ev.Job, ev.Err)
			case runner.ProgressQuarantined:
				fmt.Fprintf(stderr, "=== %s: %s\n", ev.Job, ev.Warning)
			default:
				fmt.Fprintf(stderr, "[%d/%d] %s: %s (%v)\n", ev.Done, ev.Total, ev.Job,
					ev.Kind, ev.Elapsed.Round(time.Millisecond))
			}
		},
	}
	jobs := sectionJobs(secs, cfg.only, cfg.quick)
	if in != nil {
		pool.Retry = in.Spec.Retry()
		jobs = in.Wrap(jobs)
	}
	if cfg.cache != "" {
		pool.Cache = &runner.Cache{Dir: cfg.cache}
		if in != nil && in.Spec.CorruptN > 0 {
			if _, err := in.CorruptCache(cfg.cache); err != nil {
				return err
			}
		}
	}

	results := pool.Run(ctx, jobs)
	// A cache that could not be written costs the next run its warm
	// restores, not this one its results, so it gets one line on stderr
	// and no change of exit status. The manifest's journal folds back
	// into a bare snapshot, also after an interrupt, keeping every retry
	// record (figures never trims history); a failed fold only leaves the
	// journal for the next run to replay.
	if pool.Cache != nil {
		if err := pool.Cache.Flush(); err != nil {
			fmt.Fprintf(stderr, "figures: cache: %v (the next run re-simulates what was not cached)\n", err)
		}
	}
	if _, err := manifest.Compact(math.MaxInt); err != nil {
		fmt.Fprintf(stderr, "figures: manifest: %v\n", err)
	}

	man := collectErrors(results)
	errPath := filepath.Join(cfg.out, "errors.json")
	if err := man.WriteFile(errPath); err != nil {
		return err
	}
	if err := assemble(stdout, results, cfg); err != nil {
		return err
	}
	if in != nil {
		if err := writeChaosArtifacts(in, cfg.out); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "figures: %s\n", in.Summary())
	}
	st := pool.Stats()
	fmt.Fprintf(stdout, "\n%d simulated, %d cached, %d failed, %d retried, %d quarantined; summary written to %s\n",
		st.Executed, st.CacheHits, st.Failed, st.Retries, st.CacheCorrupt, filepath.Join(cfg.out, "summary.md"))
	if ctx.Err() != nil {
		return &exitError{code: 3, msg: "figures: interrupted; partial results flushed, re-run to resume"}
	}
	if len(man.Errors) > 0 {
		return fmt.Errorf("figures: %d section(s) failed; see %s", len(man.Errors), errPath)
	}
	return nil
}

// collectErrors gathers the batch's failures into the errors.json
// manifest. A clean batch still writes one: an explicit empty list
// distinguishes "clean" from "never ran".
func collectErrors(results []runner.JobResult) guard.Manifest {
	var man guard.Manifest
	for _, res := range results {
		if res.Err != nil {
			man.Add(res.Err)
		}
	}
	return man
}

// assemble writes the batch outputs in declared section order: the
// summary fragments into summary.md, the console transcripts to w, and
// every data file into cfg.out. Failed sections contribute nothing here;
// they are reported via errors.json.
func assemble(w io.Writer, results []runner.JobResult, cfg config) error {
	var summary strings.Builder
	fmt.Fprintf(&summary, "# Regenerated figures and tables\n\ngenerated %s, quick=%v\n",
		generated().Format(time.RFC3339), cfg.quick)
	for _, res := range results {
		if res.Err != nil {
			continue
		}
		var art paper.Artifact
		if err := json.Unmarshal(res.Artifact, &art); err != nil {
			return fmt.Errorf("section %s: corrupt artifact: %v", res.ID, err)
		}
		summary.WriteString(art.Summary)
		fmt.Fprint(w, art.Console)
		for _, f := range art.Files {
			if err := os.WriteFile(filepath.Join(cfg.out, f.Name), f.Data, 0o644); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(filepath.Join(cfg.out, "summary.md"), []byte(summary.String()), 0o644)
}

// parseOnly turns the -only list into a section filter (nil runs every
// section). An ID that names no section is an error listing the IDs that
// -list prints, so a typo never runs an empty batch over -out.
func parseOnly(spec string, secs []batchSection) (map[string]bool, error) {
	if spec == "" {
		return nil, nil
	}
	known := map[string]bool{}
	ids := make([]string, len(secs))
	for i, s := range secs {
		known[s.id] = true
		ids[i] = s.id
	}
	filter := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			return nil, fmt.Errorf("-only: unknown section %q (sections: %s)", id, strings.Join(ids, ", "))
		}
		filter[id] = true
	}
	return filter, nil
}

// listSections prints the section IDs in run order, annotated with the
// recorded outcome from the manifest when one exists: status, attempt
// count, and — when the manifest on disk was damaged and salvaged — one
// leading note saying what LoadManifest recovered.
func listSections(w io.Writer, m *runner.Manifest) {
	if m.RecoveredFrom != "" {
		fmt.Fprintf(w, "# manifest: %s\n", m.RecoveredFrom)
	}
	for _, s := range sections {
		e, ok := m.Entry(s.id)
		if !ok {
			fmt.Fprintln(w, s.id)
			continue
		}
		note := string(e.Status)
		if e.Attempts > 1 {
			note += fmt.Sprintf(", %d attempts", e.Attempts)
		}
		fmt.Fprintf(w, "%s\t[%s]\n", s.id, note)
	}
}

// writeChaosArtifacts records what the injector did under <out>/.chaos/:
// the injection log as JSONL and the injection counters in Prometheus
// text format. The directory sits next to .cache and, like it, is
// excluded from output-tree parity comparisons.
func writeChaosArtifacts(in *chaos.Injector, out string) error {
	dir := filepath.Join(out, ".chaos")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var events bytes.Buffer
	if err := in.WriteLog(&events); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "events.jsonl"), events.Bytes(), 0o644); err != nil {
		return err
	}
	var metrics bytes.Buffer
	if err := in.WritePrometheus(&metrics); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "metrics.txt"), metrics.Bytes(), 0o644)
}
