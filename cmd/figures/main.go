// Command figures regenerates every figure and table of the paper into an
// output directory: CSV data, ASCII previews, and a markdown summary with
// paper-vs-measured rows (the source material for EXPERIMENTS.md).
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
// A panic or a blown -deadline inside a section is recorded as a
// structured RunError and the batch continues with the next section. The
// collected failures are always written to <out>/errors.json — an empty
// list means a clean batch — and a non-empty list makes the command exit 1
// after the batch completes.
//
// Interrupting the batch (SIGINT or SIGTERM) cancels its context: running
// sections stop at the next simulation tick, the manifest and errors.json
// flush, and the command exits 3 so callers can tell "interrupted after a
// clean drain" from a runtime failure (1) or a malformed invocation (2):
// an unknown flag or -only ID, a bad -chaos spec, or a positional argument.
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

	"starvation/internal/core"
	"starvation/internal/guard"
	"starvation/internal/network"
	"starvation/internal/prof"
	"starvation/internal/runner"
	"starvation/internal/runner/chaos"
	"starvation/internal/scenario"
	"starvation/internal/trace"
	"starvation/internal/units"
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

// artifactFile is one output file produced by a section, held in memory
// until the driver writes it into -out.
type artifactFile struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
}

// sectionArtifact is the serialized outcome of one section: its summary
// fragment, its console transcript, and its data files. This is what the
// runner caches, so a cache hit restores everything a re-run would print
// and write.
type sectionArtifact struct {
	Summary string         `json:"summary"`
	Console string         `json:"console"`
	Files   []artifactFile `json:"files,omitempty"`
}

// reporter accumulates one section's output in memory. Each job gets its
// own reporter, so sections never contend: no locks, and parallel batches
// produce the same bytes as sequential ones once the driver assembles the
// artifacts in declared order.
type reporter struct {
	quick   bool // -quick: the sections pick their shorter runs
	summary strings.Builder
	console strings.Builder
	files   []artifactFile
}

func (r *reporter) section(id, title string) {
	fmt.Fprintf(&r.summary, "\n## %s — %s\n\n", id, title)
	fmt.Fprintf(&r.console, "=== %s — %s\n", id, title)
}

func (r *reporter) row(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	fmt.Fprintf(&r.summary, "%s\n", line)
	fmt.Fprintf(&r.console, "%s\n", line)
}

// print emits console-only output (ASCII plots, tables).
func (r *reporter) print(args ...any) {
	fmt.Fprintln(&r.console, args...)
}

// save captures a data file. It panics on serialization errors rather
// than exiting: the runner converts the panic into a RunError and lets
// the rest of the batch produce its figures.
func (r *reporter) save(name string, write func(w io.Writer) error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		panic(fmt.Sprintf("figures: writing %s: %v", name, err))
	}
	r.files = append(r.files, artifactFile{Name: name, Data: buf.Bytes()})
	r.row("- data: `%s`", name)
}

// dur picks a run length: short under -quick, long otherwise.
func (r *reporter) dur(long, short time.Duration) time.Duration {
	if r.quick {
		return short
	}
	return long
}

// artifact serializes the reporter for the cache.
func (r *reporter) artifact() ([]byte, error) {
	return json.Marshal(sectionArtifact{
		Summary: r.summary.String(),
		Console: r.console.String(),
		Files:   r.files,
	})
}

// batchSection is one independently guarded unit of the batch.
type batchSection struct {
	id string
	fn func(context.Context, *reporter)
}

var sections = []batchSection{
	{"F1", fig1},
	{"F3", fig3},
	{"F4", fig4},
	{"F5", fig5},
	{"F7", fig7},
	{"T5", tables5},
	{"T6.3", table63},
	{"X-EPISODES", episodes},
	{"X-A1-ablation", ablation},
	{"X-ECN", ecnSection},
	{"X-T2", theorem2},
	{"X-T3", theorem3},
	{"X-POP", population},
}

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
// builds a fresh reporter, runs the section, and serializes the result.
func sectionJobs(secs []batchSection, filter map[string]bool, quick bool) []runner.Job {
	var jobs []runner.Job
	for _, s := range secs {
		if len(filter) > 0 && !filter[s.id] {
			continue
		}
		fn := s.fn
		jobs = append(jobs, runner.Job{
			ID:  s.id,
			Key: sectionKey(s.id, quick),
			Run: func(ctx context.Context) ([]byte, error) {
				r := &reporter{quick: quick}
				fn(ctx, r)
				// A cancelled context halted the section's simulations at
				// the next run tick, so whatever the reporter holds is
				// truncated: fail the job instead of caching bad data.
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				return r.artifact()
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
		var art sectionArtifact
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

// fig1 regenerates Figure 1: ideal-path RTT convergence of a
// delay-convergent CCA (Vegas as the concrete instance).
func fig1(ctx context.Context, r *reporter) {
	r.section("F1", "ideal-path RTT convergence (Vegas, 12 Mbit/s, Rm=100ms)")
	conv := core.MeasureConvergence("vegas", units.Mbps(12),
		100*time.Millisecond, core.MeasureOpts{Duration: r.dur(30*time.Second, 10*time.Second), Ctx: ctx})
	r.row("- converged at T=%v to [dmin=%v, dmax=%v], δ=%v",
		conv.ConvergedAt.Round(time.Millisecond),
		conv.DMin.Round(10*time.Microsecond), conv.DMax.Round(10*time.Microsecond),
		conv.Delta.Round(10*time.Microsecond))
	r.save("fig1_rtt.csv", func(w io.Writer) error { return conv.RTT.WriteCSV(w) })
	r.print(trace.ASCIIPlot(conv.RTT, 72, 12, "RTT (s)"))
}

// fig3 regenerates Figure 3: the rate-delay graphs of the delay-bounding
// CCAs, each measured band beside the one the CCA's contract predicts.
func fig3(ctx context.Context, r *reporter) {
	r.section("F3", "rate-delay graphs (Rm=100ms)")
	n := 7
	lo, hi := units.Mbps(0.4), units.Mbps(100)
	if r.quick {
		n = 4
		lo = units.Mbps(1.5)
	}
	rates := core.LogSpace(lo, hi, n)
	// One session serves all eight sequential sweeps: every point shares
	// the single-flow ideal-path shape, so the arenas are built once.
	sess := network.NewSession()
	for _, name := range []string{"vegas", "fast", "copa", "ledbat", "verus", "bbr", "vivace", "algo1"} {
		sw := core.RateDelaySweep(name, 100*time.Millisecond, rates,
			core.MeasureOpts{Duration: r.dur(30*time.Second, 12*time.Second), Ctx: ctx, Session: sess})
		r.save("fig3_"+name+".csv", func(w io.Writer) error { return sw.WriteCSV(w) })
		// predDM is DeltaMax over the predicted bands; stray is how far the
		// measured bands leave them.
		var predDM, stray time.Duration
		for _, p := range sw.Points {
			if p.C > lo {
				predDM = max(predDM, p.PredHi-p.PredLo)
			}
			stray = max(stray, p.PredLo-p.DMin, p.DMax-p.PredHi)
		}
		rnd := func(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
		dm := sw.DeltaMax(lo)
		r.row("- %s: δmax=%v (Theorem 1: D > %v), dmax-bound=%v over C>%v; %s contract: δmax=%v (D > %v), measured bands up to %v outside it",
			name, rnd(dm), rnd(core.StarvationThreshold(dm)), rnd(sw.DMaxBound(lo)), lo,
			sw.Contract, rnd(predDM), rnd(core.StarvationThreshold(predDM)), rnd(stray))
		r.print(sw)
	}
}

// fig4 regenerates Figure 4: the pigeonhole search for a colliding pair of
// link rates.
func fig4(ctx context.Context, r *reporter) {
	r.section("F4", "pigeonhole search (Vegas, s=8, f=0.8, Rm=50ms)")
	res := core.PigeonholeSearch("vegas", 50*time.Millisecond,
		8, 0.8, 5*time.Millisecond, units.Mbps(4), 6,
		core.MeasureOpts{Duration: r.dur(25*time.Second, 10*time.Second), Ctx: ctx})
	r.row("- %s", res)
}

// fig5 regenerates Figures 5/6: the Theorem 1 trajectory emulation.
func fig5(ctx context.Context, r *reporter) {
	r.section("F5/F6", "Theorem 1 construction (Vegas, C1=12, C2=384 Mbit/s)")
	res := core.EmulateTwoFlow(core.EmulationSpec{
		CCA:     "vegas",
		Rm:      50 * time.Millisecond,
		C1:      units.Mbps(12),
		C2:      units.Mbps(384),
		D:       20 * time.Millisecond,
		Measure: core.MeasureOpts{Duration: r.dur(30*time.Second, 12*time.Second), Ctx: ctx},
	})
	r.row("- preconditions hold: %v (δmax=%v, ε=%v, gap=%v)",
		res.PreconditionsHold, res.DeltaMax.Round(time.Microsecond),
		res.Epsilon.Round(time.Microsecond), res.DelayGap.Round(time.Microsecond))
	r.row("- starvation ratio %.1f (thpts %v vs %v)", res.Ratio,
		res.TwoFlow.Flows[0].Stat.SteadyThpt, res.TwoFlow.Flows[1].Stat.SteadyThpt)
	r.save("fig5_trajectories.csv", func(w io.Writer) error {
		end := res.TwoFlow.Duration
		return trace.WriteMultiCSV(w, 0, end, 100*time.Millisecond,
			res.Target1, res.Target2,
			res.TwoFlow.Flows[0].RTT, res.TwoFlow.Flows[1].RTT,
			res.TwoFlow.Flows[0].Rate, res.TwoFlow.Flows[1].Rate)
	})
}

// fig7 regenerates Figure 7: Reno/Cubic cwnd evolution under delayed-ACK
// burstiness.
func fig7(ctx context.Context, r *reporter) {
	r.section("F7", "Reno/Cubic cwnd evolution, delayed ACKs ×4 on one flow")
	for _, name := range []string{"fig7-reno", "fig7-cubic"} {
		res := scenario.Registry[name](scenario.Opts{Duration: r.dur(200*time.Second, 60*time.Second), Ctx: ctx})
		r.row("- %s: ratio %.2f (paper %s)", res.ID, res.Observables["ratio"], res.PaperClaim)
		id := strings.ReplaceAll(res.ID, ".", "_")
		r.save(id+"_cwnd.csv", func(w io.Writer) error {
			end := res.Net.Duration
			return trace.WriteMultiCSV(w, 0, end, 500*time.Millisecond,
				res.Net.Flows[0].Cwnd, res.Net.Flows[1].Cwnd)
		})
		r.print(trace.ASCIIPlot(res.Net.Flows[0].Cwnd, 72, 10, res.ID+" delacked cwnd (B)"))
	}
}

// tables5 runs every §5 experiment.
func tables5(ctx context.Context, r *reporter) {
	r.section("T5", "§5 starvation experiments")
	for _, name := range []string{"copa-single", "copa-two", "bbr-two",
		"vivace-ackagg", "allegro-loss", "allegro-burst", "allegro-both",
		"allegro-single"} {
		res := scenario.Registry[name](scenario.Opts{Duration: r.dur(0, 30*time.Second), Ctx: ctx})
		r.row("### %s", res.ID)
		r.row("```\n%s```", res)
	}
}

// table63 regenerates the §6.3 figure-of-merit comparison and the
// Algorithm 1 fairness demonstration.
func table63(ctx context.Context, r *reporter) {
	r.section("T6.3", "figure-of-merit μ+/μ− and Algorithm 1 fairness")
	rm := time.Duration(0)
	rmax := 100 * time.Millisecond
	for _, d := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		for _, s := range []float64{2, 4} {
			r.row("- D=%v s=%v: Vegas family %.1f vs exponential %.3g",
				d, s, core.VegasFigureOfMerit(rmax, rm, d, s),
				core.ExponentialFigureOfMerit(rmax, rm, d, s))
		}
	}
	res := scenario.Registry["algo1-fair"](scenario.Opts{Duration: r.dur(120*time.Second, 40*time.Second), Ctx: ctx})
	r.row("- Algorithm 1 under jitter: ratio %.2f (bound s=%.0f), utilization %.3f",
		res.Observables["ratio"], res.Observables["s_bound"], res.Observables["utilization"])
	veg := scenario.Registry["vegas-jitter"](scenario.Opts{Duration: r.dur(120*time.Second, 40*time.Second), Ctx: ctx})
	r.row("- Vegas in the same setting: ratio %.1f (starves)", veg.Observables["ratio"])
}

// episodes regenerates the T5.4d flight-recorder correlation: the bursty
// Allegro flow's windowed delivery rate against the Gilbert–Elliott
// fault-state timeline, with the online detector's episode onsets
// overlaid. The CSV carries one row per sampler window so the
// burst→outage→episode causality is plottable directly.
func episodes(ctx context.Context, r *reporter) {
	r.section("X-EPISODES", "starvation episodes vs loss bursts (T5.4d flight recorder)")
	res := scenario.Registry["allegro-burst"](scenario.Opts{
		Duration:  r.dur(0, 30*time.Second),
		Ctx:       ctx,
		Telemetry: &network.TelemetryConfig{},
	})
	tr := res.Net.Telemetry
	r.row("- %d episodes over %d windows of %v (eps %.2f of fair %v)",
		len(tr.Episodes), tr.Flows[0].WindowsClosed, tr.Window,
		tr.Epsilon, units.Rate(tr.FairShare))
	for _, ep := range tr.Episodes {
		fault := "-"
		if ep.FaultAtOnset {
			fault = "loss burst at onset"
		}
		r.row("- %s: onset %v, %v, severity %.2f, %d bursts while starved (%s)",
			ep.Name, ep.Onset, ep.Duration(), ep.Severity, ep.FaultBursts, fault)
	}

	bursty := &tr.Flows[0]
	starved := func(t time.Duration) int {
		for _, ep := range tr.Episodes {
			if ep.Flow == 0 && t >= ep.Onset && t < ep.End {
				return 1
			}
		}
		return 0
	}
	r.save("t5_4d_episode_timeline.csv", func(w io.Writer) error {
		if _, err := fmt.Fprintln(w, "t_s,rate_mbps,fault_bad,fault_bursts,starved"); err != nil {
			return err
		}
		for _, win := range bursty.Windows {
			bad := 0
			if win.FaultBad {
				bad = 1
			}
			if _, err := fmt.Fprintf(w, "%.3f,%.3f,%d,%d,%d\n",
				win.Start.Seconds(), win.RateBps(tr.Window)/1e6,
				bad, win.FaultBursts, starved(win.Start)); err != nil {
				return err
			}
		}
		return nil
	})
	var rate trace.Series
	rate.Name = "bursty_windowed_mbps"
	rate.Reserve(len(bursty.Windows))
	for _, win := range bursty.Windows {
		rate.Add(win.Start, win.RateBps(tr.Window)/1e6)
	}
	r.print(trace.ASCIIPlot(&rate, 72, 10, "bursty windowed rate (Mbit/s)"))
}

// ablation runs the §6.3 design-choice ablation for Algorithm 1.
func ablation(ctx context.Context, r *reporter) {
	r.section("X-A1-ablation", "Algorithm 1 design ablation (AIMD/per-Rm vs rejected variants)")
	res := scenario.Registry["algo1-ablation"](scenario.Opts{Duration: r.dur(120*time.Second, 40*time.Second), Ctx: ctx})
	r.row("- AIMD per-Rm (published): ratio %.2f, utilization %.3f",
		res.Observables["aimd_ratio"], res.Observables["aimd_utilization"])
	r.row("- AIAD variant (rejected): ratio %.2f, utilization %.3f",
		res.Observables["aiad_ratio"], res.Observables["aiad_utilization"])
	r.row("- per-ACK variant (rejected): ratio %.2f, utilization %.3f",
		res.Observables["perack_ratio"], res.Observables["perack_utilization"])
}

// ecnSection runs the §6.4 ECN demonstration.
func ecnSection(ctx context.Context, r *reporter) {
	r.section("X-ECN", "§6.4: explicit signaling avoids starvation")
	res := scenario.Registry["ecn-fairness"](scenario.Opts{Duration: r.dur(60*time.Second, 30*time.Second), Ctx: ctx})
	r.row("- ECN-reacting loss-blind AIMD: ratio %.2f, jain %.3f, utilization %.3f",
		res.Observables["ecn_ratio"], res.Observables["ecn_jain"], res.Observables["ecn_utilization"])
	r.row("- loss-reacting AIMD (control): ratio %.2f, jain %.3f",
		res.Observables["loss_ratio"], res.Observables["loss_jain"])
}

// theorem2 regenerates the under-utilization construction.
func theorem2(ctx context.Context, r *reporter) {
	r.section("X-T2", "Theorem 2: arbitrary under-utilization")
	res := core.UnderutilizationConstruction(core.UnderutilizationSpec{
		CCA:     "vegas",
		Rm:      50 * time.Millisecond,
		C:       units.Mbps(12),
		Measure: core.MeasureOpts{Duration: r.dur(20*time.Second, 10*time.Second), Ctx: ctx},
	})
	r.row("- emulated C=%v on C'=%v with D=%v: utilization %.4f",
		res.Conv.C, res.BigLink, res.D.Round(time.Millisecond), res.Utilization)
}

// theorem3 regenerates the Appendix B strong-model construction.
func theorem3(ctx context.Context, r *reporter) {
	r.section("X-T3", "Theorem 3: strong-model starvation (Appendix B)")
	res := core.StrongModelConstruction(core.StrongModelSpec{
		CCA:     "vegas",
		Rm:      50 * time.Millisecond,
		Lambda:  units.Mbps(4),
		D:       5 * time.Millisecond,
		S:       2,
		Measure: core.MeasureOpts{Duration: r.dur(20*time.Second, 10*time.Second), Ctx: ctx},
	})
	for _, st := range res.Steps {
		r.row("- step %d: maxDelay=%v, throughput=%v", st.Index,
			st.MaxDelay.Round(time.Millisecond), st.Throughput)
	}
	if res.FoundPair {
		r.row("- consecutive pair at step %d with ratio %.2f >= s", res.PairIndex, res.Ratio)
	}
}

// population runs the N-flow population-starvation experiments: mixed-CCA,
// heterogeneous-RTT, parking-lot and fan-in populations, each reported as
// starved fraction / share quantiles and saved as a per-flow share CSV.
func population(ctx context.Context, r *reporter) {
	r.section("X-POP", "population-scale starvation (N-flow cohorts, multi-bottleneck)")
	for _, name := range []string{"pop-mixed", "pop-rtt", "pop-parkinglot", "pop-fanin"} {
		res := scenario.Registry[name](scenario.Opts{Duration: r.dur(0, 6*time.Second), Ctx: ctx})
		st := res.Net.Population(0)
		r.row("- %s: starved %.0f/%.0f (%.1f%%), jain %.3f, p5 share %.3f, p95 share %.3f",
			name, res.Observables["starved"], res.Observables["flows"],
			100*res.Observables["starved_frac"], res.Observables["jain"],
			res.Observables["share_p5"], res.Observables["share_p95"])
		id := strings.ReplaceAll(name, "-", "_")
		r.save(id+"_shares.csv", func(w io.Writer) error {
			if _, err := fmt.Fprintln(w, "flow,cohort,throughput_bps,share_of_fair"); err != nil {
				return err
			}
			thpts := res.Net.Throughputs()
			for i, f := range res.Net.Flows {
				share := 0.0
				if st.FairShare > 0 {
					share = thpts[i] / st.FairShare
				}
				if _, err := fmt.Fprintf(w, "%s,%s,%.0f,%.4f\n", f.Name, f.Cohort, thpts[i], share); err != nil {
					return err
				}
			}
			return nil
		})
		r.print(st.String())
	}
}
