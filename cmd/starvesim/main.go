// Command starvesim runs the paper's experiments from the command line.
//
// Usage:
//
//	starvesim -list
//	starvesim -scenario bbr-two [-seed 2] [-duration 60s]
//	starvesim -scenario bbr-two -trace events.jsonl -metrics metrics.txt
//	starvesim -scenario allegro-burst -telemetry
//	starvesim -scenario allegro-burst -watch 1s -trace events.jsonl
//	starvesim -scenario all [-jobs 4]
//	starvesim -scenario bbr-two -sweep 10 [-jobs 4]
//	starvesim -flows "vegas*8;reno*8:rm=120ms" -rate 48 -buffer 128
//	starvesim -flows "vegas*8;reno*8" -topology fanin:4 -eps 0.1
//	starvesim -flows "allegro:rm=50ms,ge=0.008/0.2/0.5;allegro:rm=50ms"
//	starvesim -server localhost:8377 -flows "vegas*8;reno*8"
//
// Each scenario prints the paper's claimed numbers next to the measured
// ones. -trace streams the run's packet-lifecycle events (enqueue, drop,
// mark, dequeue, deliver, ack receipt, cwnd updates, rate samples) as
// JSONL for offline analysis; -metrics writes the end-of-run counters
// registry in Prometheus text format. Both observe one run: a single
// -scenario name or a local -flows set.
//
// -telemetry turns on the flight recorder: windowed per-flow series, the
// online starvation-episode detector, and run-phase spans. The result
// gains an episode timeline table, and -metrics gains the telemetry
// families. -watch <interval> additionally renders a live one-line view
// to stderr as the run progresses (and flushes -trace each tick); it
// implies -telemetry. The recorder only observes: fixed-seed runs
// produce bit-identical realizations with it on or off.
//
// -sweep N runs one scenario across N consecutive seeds (starting at
// -seed, default 2) and prints one observables line per seed. -jobs bounds
// the parallel workers of "-scenario all" and of -sweep (0 = GOMAXPROCS);
// output stays in scenario or seed order regardless of completion order.
// Every run is an independent deterministic simulator, so parallelism
// never changes any measured number.
//
// -flows runs a flow set: semicolon-separated flow groups
// (cca[*count][:key=val,...]) over a -topology (single, parkinglot:<n>,
// fanin:<n>), reporting population starvation statistics — starved
// fraction under the -eps threshold, share quantiles, per-cohort Jain.
// A pair is a two-group set, e.g. -flows "vegas:rm=50ms;reno:rm=50ms".
// A group's impairments are keys of its clause, like everything else
// about it: jitter=, loss= and ge= (Gilbert–Elliott bursty loss,
// ge=<g2b>/<b2g>/<dropBad>[/<dropGood>]), so they reach -server runs too.
//
// -server <addr> runs the -flows set on a starved daemon (see
// cmd/starved) instead of locally: the spec is submitted as a one-job
// batch, the batch's events stream to stderr, and the result printed to
// stdout is byte-identical to a local run. A spec the daemon rejects
// exits 2 with the same message a local run would.
//
// -guard enables the run-guard layer (stall and conservation checks on
// element counters).
//
// -deadline bounds the wall-clock time of the whole invocation — one run,
// or every run of -scenario all or -sweep together — as a deadline on the
// command's context. An interrupt (SIGINT or SIGTERM) cancels the same
// context. Either way the event loop halts at its next context poll, the
// trace/metrics/telemetry exporters flush what the truncated run
// produced, and one line on standard error says which of the two stopped
// it.
//
// The flags select one mode — -list, a single -scenario, -scenario all,
// -sweep, -flows or -server — and each mode reads a fixed set of flags
// (modeFlags). A flag set on the command line that the mode does not
// read is refused with exit 2, never dropped: an observer that cannot
// attach to -server, a -jobs that a single run has no use for. So is a
// positional argument, which would end flag parsing where it stands, and
// a negative -duration, -deadline or -jobs (0 keeps its default).
//
// Exit status: 0 on success, 1 on runtime failure (unknown scenario, a
// guard violation, an expired -deadline), 2 on a malformed configuration,
// 3 after an interrupt with a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"starvation/internal/core"
	"starvation/internal/guard"
	"starvation/internal/network"
	"starvation/internal/obs"
	"starvation/internal/prof"
	"starvation/internal/runner"
	"starvation/internal/scenario"
)

func main() { os.Exit(run()) }

// The modes, named as the refusal line names them.
const (
	modeList     = "-list"
	modeScenario = "a single -scenario"
	modeAll      = "-scenario all"
	modeSweep    = "-sweep"
	modeFlows    = "-flows"
	modeServer   = "-server"
)

// modeFlags maps each mode to the flags it reads; every mode also reads
// the profiler's -cpuprofile and -memprofile.
var modeFlags = map[string][]string{
	modeList:     {"list"},
	modeScenario: {"scenario", "seed", "duration", "trace", "metrics", "telemetry", "watch", "guard", "deadline"},
	modeAll:      {"scenario", "seed", "duration", "telemetry", "guard", "deadline", "jobs"},
	modeSweep:    {"scenario", "sweep", "seed", "duration", "guard", "deadline", "jobs"},
	modeFlows:    {"flows", "topology", "rate", "buffer", "eps", "seed", "duration", "trace", "metrics", "telemetry", "watch", "guard", "deadline"},
	// The daemon runs the spec alone: observers, the guard and the
	// deadline attach to local runs.
	modeServer: {"server", "flows", "topology", "rate", "buffer", "eps", "seed", "duration"},
}

// exitError is a failure that carries its exit status. Any other error
// exits 1, the runtime-failure status.
type exitError struct {
	code int
	msg  string // standard error's line(s); empty when already reported
}

func (e *exitError) Error() string { return e.msg }

// usage reports a malformed configuration: exit 2.
func usage(format string, args ...any) error {
	return &exitError{code: 2, msg: fmt.Sprintf("starvesim: "+format, args...)}
}

// run is the command: it reports what execute failed with on standard
// error and returns the exit status.
func run() int {
	err := execute()
	if err == nil {
		return 0
	}
	code := 1
	var ee *exitError
	if errors.As(err, &ee) {
		code = ee.code
	}
	if msg := err.Error(); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
	}
	return code
}

func execute() error {
	var (
		list     = flag.Bool("list", false, "list available scenarios")
		name     = flag.String("scenario", "", "scenario to run (or \"all\")")
		seed     = flag.Int64("seed", 0, "RNG seed (0 = reference realization)")
		duration = flag.Duration("duration", 0, "override run duration")

		tracePath   = flag.String("trace", "", "write packet-lifecycle events as JSONL to this file")
		metricsPath = flag.String("metrics", "", "write the counters registry in Prometheus text format to this file")
		telemetry   = flag.Bool("telemetry", false, "enable the flight recorder: windowed per-flow series, online starvation-episode detection, run-phase spans (appends an episode table to the result; adds episode/series metrics to -metrics)")
		watchEvery  = flag.Duration("watch", 0, "render a live telemetry view to stderr every interval, e.g. -watch 1s (implies -telemetry; flushes -trace periodically)")

		guardOn  = flag.Bool("guard", false, "enable the run-guard layer (stall and conservation checks)")
		deadline = flag.Duration("deadline", 0, "wall-clock budget for the whole invocation; exceeding it halts every run, flushes outputs and exits 1")

		jobsN  = flag.Int("jobs", 0, "parallel workers for -scenario all and -sweep (0 = GOMAXPROCS)")
		sweepN = flag.Int("sweep", 0, "run the scenario across this many consecutive seeds, one observables line per seed")

		flows    = flag.String("flows", "", "flow set: semicolon-separated flow groups, cca[*count][:key=val,...] (keys: rm, start, stagger, jitter, loss, ge=g2b/b2g/dropBad[/dropGood], ackagg, delack, path, cohort)")
		topology = flag.String("topology", "single", "-flows: single | parkinglot:<hops> | fanin:<access-links>")
		rate     = flag.Float64("rate", 48, "-flows: bottleneck Mbit/s")
		buffer   = flag.Int("buffer", 0, "-flows: bottleneck buffer in packets (0 = infinite)")
		epsilon  = flag.Float64("eps", 0, "-flows: starvation threshold as a fraction of fair share (0 = default 0.1)")
		server   = flag.String("server", "", "run the -flows set on a starved daemon at this address (host:port or URL) instead of locally; output is byte-identical")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return usage("unexpected argument %q", flag.Arg(0))
	}

	mode := modeList
	switch {
	case *flows != "" && *server != "":
		mode = modeServer
	case *flows != "":
		mode = modeFlows
	case *list:
		mode = modeList
	case *sweepN != 0:
		mode = modeSweep
	case *name == "all":
		mode = modeAll
	case *name != "":
		mode = modeScenario
	}
	// Refuse the first flag set on the command line that the mode does
	// not read.
	var refused string
	flag.Visit(func(f *flag.Flag) {
		reads := slices.Contains(modeFlags[mode], f.Name) || f.Name == "cpuprofile" || f.Name == "memprofile"
		if !reads && refused == "" {
			refused = f.Name
		}
	})
	if refused != "" {
		return usage("-%s does not apply to %s", refused, mode)
	}
	// A population spec refuses its own negative duration, with the line
	// the daemon answers a negative duration_sec with.
	if *duration < 0 && mode != modeFlows && mode != modeServer {
		return usage("-duration %v: must not be negative (0 = the scenario's default)", *duration)
	}
	if *deadline < 0 {
		return usage("-deadline %v: must not be negative (0 = no limit)", *deadline)
	}
	if *jobsN < 0 {
		return usage("-jobs %d: must not be negative (0 = GOMAXPROCS)", *jobsN)
	}
	if mode == modeSweep && *sweepN < 1 {
		return usage("-sweep %d: the seed count must be positive", *sweepN)
	}
	if mode == modeSweep && (*name == "" || *name == "all") {
		return usage("-sweep needs a single -scenario name")
	}
	if mode == modeScenario || mode == modeSweep {
		// Validate before opening any output file so a typo'd scenario
		// name doesn't leave a stray empty trace behind.
		if _, ok := scenario.Registry[*name]; !ok {
			return fmt.Errorf("unknown scenario %q; use -list", *name)
		}
	}
	spec := scenario.PopulationSpec{
		Flows: *flows, Topology: *topology,
		RateMbps: *rate, BufferPkts: *buffer, Epsilon: *epsilon,
		Duration: *duration, Seed: *seed,
	}
	var pop core.PopulationConfig
	if mode == modeFlows {
		// Checked as deeply as the run will, before any output file opens.
		var err error
		if pop, err = spec.Config(); err == nil {
			err = pop.Validate()
		}
		if err != nil {
			return usage("%v", err)
		}
	}

	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fmt.Errorf("starvesim: %v", err)
	}
	defer stop()

	// An interrupt cancels this context and -deadline expires it; every
	// mode threads it into its runs so the event loop halts at the next
	// poll and exporters flush.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	// sink owns the optional exporters; runs hand it each Result so the
	// metrics file reflects the completed run's registry snapshot.
	sink, err := newObsSink(*tracePath, *metricsPath)
	if err != nil {
		return fmt.Errorf("starvesim: %v", err)
	}
	// -watch interposes the live view between the run and the sink: the
	// simulation emits through the shared lock, the render goroutine
	// reads (and flushes the trace) under it.
	runProbe := sink.probe()
	var watch *watcher
	if *watchEvery > 0 {
		watch = startWatch(*watchEvery, runProbe, sink.flush)
		runProbe = watch.sync
	}

	opts := scenario.Opts{Seed: *seed, Duration: *duration, Probe: runProbe, Ctx: ctx}
	if *telemetry || *watchEvery > 0 {
		opts.Telemetry = &network.TelemetryConfig{}
	}
	if *guardOn {
		opts.Guard = &guard.Options{}
	}
	switch mode {
	case modeList:
		fmt.Println("available scenarios:")
		for _, n := range scenario.Names() {
			fmt.Printf("  %s\n", n)
		}
		if !*list {
			fmt.Println("\nrun with -scenario <name> or -scenario all")
		}
		return nil
	case modeServer:
		return runServerPopulation(ctx, *server, spec)
	case modeFlows:
		pop.Guard, pop.Probe, pop.Telemetry, pop.Ctx = opts.Guard, opts.Probe, opts.Telemetry, ctx
		pr, err := core.RunPopulation(pop)
		if err != nil {
			return usage("%v", err)
		}
		fmt.Print(pr.Render())
		return finishRun(ctx, sink, watch, pr.Net, "population", pr.Seed)
	case modeSweep:
		return runSweep(ctx, *name, *sweepN, *jobsN, opts)
	case modeAll:
		return runAll(ctx, *jobsN, opts)
	}
	res := runScenario(*name, opts)
	return finishRun(ctx, sink, watch, res, *name, *seed)
}

// finishRun closes the run's observers in order — live view first (its
// final state line), then the sink (reporting any export failure as a
// structured guard.KindExport RunError) — and fails on export or guard
// failure. A run the context stopped fails after the drain with
// stopped's status: the exporters flushed what the truncated run
// produced, and the interrupt or expired -deadline — not whatever the
// halted simulation looks like to the guard — is the outcome callers
// should see.
func finishRun(ctx context.Context, sink *obsSink, watch *watcher, res *network.Result, name string, seed int64) error {
	if watch != nil {
		watch.halt()
	}
	var err error
	if rerr := sink.finish(res, name, seed); rerr != nil {
		fmt.Fprintln(os.Stderr, rerr)
		err = &exitError{code: 1}
	}
	if serr := stopped(ctx, "; partial outputs flushed"); serr != nil {
		return serr
	}
	if guardFailed(res) {
		return errors.New(res.Guard.String())
	}
	return err
}

// runAll executes every registered scenario, -jobs at a time, and prints
// the reports in sorted scenario order regardless of completion order.
// It fails with 1 when any guarded run failed, otherwise with stopped's
// status when the context cut the batch short.
func runAll(ctx context.Context, jobs int, opts scenario.Opts) error {
	names := scenario.Names()
	outputs := make([]string, len(names))
	failed := make([]bool, len(names))
	_ = runner.ForEach(ctx, jobs, len(names), func(ctx context.Context, i int) error {
		o := opts
		o.Ctx = ctx
		start := time.Now()
		res := scenario.Registry[names[i]](o)
		out := fmt.Sprintf("%s(took %v)\n\n", res, time.Since(start).Round(time.Millisecond))
		if guardFailed(res.Net) {
			out += res.Net.Guard.String() + "\n"
			failed[i] = true
		}
		outputs[i] = out
		return nil
	})
	var err error
	for i, out := range outputs {
		fmt.Print(out)
		if failed[i] {
			err = &exitError{code: 1} // the guard's report is in the output
		}
	}
	if serr := stopped(ctx, "; completed scenarios printed"); serr != nil {
		return serr
	}
	return err
}

// runSweep runs one scenario across n consecutive seeds from opts.Seed
// and prints one observables line per seed, in seed order.
func runSweep(ctx context.Context, name string, n, jobs int, opts scenario.Opts) error {
	baseSeed := opts.Seed
	if baseSeed == 0 {
		baseSeed = scenario.ReferenceSeed
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = baseSeed + int64(i)
	}
	results, err := scenario.SeedSweep(ctx, name, seeds, jobs, opts)
	if err != nil {
		if serr := stopped(ctx, ""); serr != nil {
			return serr
		}
		return fmt.Errorf("starvesim: %v", err)
	}
	fmt.Printf("%s across seeds %d..%d:\n", name, seeds[0], seeds[n-1])
	err = nil
	for i, res := range results {
		fmt.Printf("  seed %d: %s\n", seeds[i], observablesLine(res))
		if guardFailed(res.Net) {
			fmt.Println(res.Net.Guard.String())
			err = &exitError{code: 1} // the guard's report is in the output
		}
	}
	return err
}

// observablesLine renders a result's named quantities on one line, keys
// sorted so sweep output is diffable.
func observablesLine(res *scenario.Result) string {
	keys := make([]string, 0, len(res.Observables))
	for k := range res.Observables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.4g", k, res.Observables[k])
	}
	return strings.Join(parts, " ")
}

func runScenario(name string, opts scenario.Opts) *network.Result {
	fn := scenario.Registry[name]
	start := time.Now()
	res := fn(opts)
	fmt.Printf("%s(took %v)\n\n", res, time.Since(start).Round(time.Millisecond))
	return res.Net
}

// stopped reports whether ctx cut the runs short, as the error to exit
// with — status 1 when the -deadline budget ran out, 3 after an
// interrupt — whose line ends in after. A live context returns nil.
func stopped(ctx context.Context, after string) error {
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return &exitError{code: 1, msg: "starvesim: -deadline exceeded" + after}
	default:
		return &exitError{code: 3, msg: "starvesim: interrupted" + after}
	}
}

func guardFailed(res *network.Result) bool {
	return res != nil && res.Guard != nil && !res.Guard.Ok()
}

// obsSink bundles the CLI's observability outputs: an optional JSONL event
// trace (streamed during the run) and an optional Prometheus metrics file
// (written from the Result's registry snapshot after it).
type obsSink struct {
	traceFile   *os.File
	traceWriter *obs.JSONLWriter
	metricsPath string
}

func newObsSink(tracePath, metricsPath string) (*obsSink, error) {
	s := &obsSink{metricsPath: metricsPath}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		s.traceFile = f
		s.traceWriter = obs.NewJSONLWriter(f)
	}
	return s, nil
}

func (s *obsSink) probe() obs.Probe {
	if s.traceWriter == nil {
		return nil
	}
	return s.traceWriter
}

// flush pushes buffered trace events to disk mid-run (the -watch tick).
// Errors are sticky in the writer and surface at finish.
func (s *obsSink) flush() error {
	if s.traceWriter == nil {
		return nil
	}
	return s.traceWriter.Flush()
}

// finish flushes the event trace and writes the metrics snapshot. res may
// be nil (closed-form scenarios have no network run). Export failures —
// including a write error that struck mid-run and stuck in the JSONL
// writer — come back as a structured guard.KindExport RunError: the
// simulation completed, but its recorded stream is incomplete.
func (s *obsSink) finish(res *network.Result, name string, seed int64) error {
	exportErr := func(what string, err error) error {
		return &guard.RunError{
			Scenario: name, Seed: seed, Kind: guard.KindExport,
			Msg: fmt.Sprintf("%s: %v", what, err),
		}
	}
	if s.traceWriter != nil {
		err := s.traceWriter.Close()
		if cerr := s.traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return exportErr("writing trace", err)
		}
	}
	if s.metricsPath == "" {
		return nil
	}
	if res == nil {
		return fmt.Errorf("starvesim: -metrics: scenario produced no network run")
	}
	f, err := os.Create(s.metricsPath)
	if err != nil {
		return exportErr("creating metrics file", err)
	}
	defer f.Close()
	if err := obs.WritePrometheus(f, &res.Obs); err != nil {
		return exportErr("writing metrics", err)
	}
	if res.Telemetry != nil {
		if err := network.WriteTelemetryPrometheus(f, res.Telemetry); err != nil {
			return exportErr("writing telemetry metrics", err)
		}
	}
	return nil
}
