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
//	starvesim -server localhost:8377 -flows "vegas*8;reno*8"
//
// Each scenario prints the paper's claimed numbers next to the measured
// ones. -trace streams the run's packet-lifecycle events (enqueue, drop,
// mark, dequeue, deliver, ack receipt, cwnd updates, rate samples) as
// JSONL for offline analysis; -metrics writes the end-of-run counters
// registry in Prometheus text format. Both observe a single scenario:
// combine them with one -scenario name (or -cca), not "all".
//
// -telemetry turns on the flight recorder: windowed per-flow series, the
// online starvation-episode detector, and run-phase spans. The result
// gains an episode timeline table, and -metrics gains the telemetry
// families. -watch <interval> additionally renders a live one-line view
// to stderr as the run progresses (and flushes -trace each tick); it
// implies -telemetry. The recorder only observes: fixed-seed runs
// produce bit-identical realizations with it on or off. Like -trace and
// -metrics it observes one local run, so -sweep and -server refuse it
// (exit 2) rather than drop it.
//
// -sweep N runs one scenario across N consecutive seeds (starting at
// -seed, default 2) and prints one observables line per seed. -jobs bounds
// the parallel workers of "-scenario all" and of -sweep (0 = GOMAXPROCS);
// output stays in scenario or seed order regardless of completion order.
// Every run is an independent deterministic simulator, so parallelism
// never changes any measured number.
//
// -flows runs population mode: semicolon-separated flow groups
// (cca[*count][:key=val,...]) over a -topology (single, parkinglot:<n>,
// fanin:<n>), reporting population starvation statistics — starved
// fraction under the -eps threshold, share quantiles, per-cohort Jain.
//
// -server <addr> runs the population experiment on a starved daemon (see
// cmd/starved) instead of locally: the spec is submitted as a one-job
// batch, the batch's events stream to stderr, and the result printed to
// stdout is byte-identical to a local run. A spec the daemon rejects
// exits 2 with the same message a local run would.
//
// -guard enables the run-guard layer (stall and conservation checks on
// element counters). -faults injects path impairments in freeform (-cca)
// mode, e.g.
//
//	starvesim -cca allegro -cca2 allegro -faults "ge:0.008,0.2,0.5;flap:5s,200ms"
//
// -deadline bounds the wall-clock time of the whole invocation — one run,
// or every run of -scenario all or -sweep together — as a deadline on the
// command's context. An interrupt (SIGINT or SIGTERM) cancels the same
// context. Either way the event loop halts at its next context poll, the
// trace/metrics/telemetry exporters flush what the truncated run
// produced, and one line on standard error says which of the two stopped
// it.
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
	"sort"
	"strings"
	"syscall"
	"time"

	"starvation/internal/guard"
	"starvation/internal/network"
	"starvation/internal/obs"
	"starvation/internal/prof"
	"starvation/internal/runner"
	"starvation/internal/scenario"
)

// stopProfiles finishes -cpuprofile/-memprofile. It must run before any
// os.Exit (deferred calls don't), so exit paths call it explicitly; the
// function is idempotent.
var stopProfiles = func() {}

func main() {
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

		// Population mode: -flows selects it.
		flows    = flag.String("flows", "", "population mode: semicolon-separated flow groups, cca[*count][:key=val,...] (keys: rm, start, stagger, jitter, loss, ackagg, path, cohort)")
		topology = flag.String("topology", "single", "population mode: single | parkinglot:<hops> | fanin:<access-links>")
		epsilon  = flag.Float64("eps", 0, "population mode: starvation threshold as a fraction of fair share (0 = default 0.1)")
		server   = flag.String("server", "", "population mode: run on a starved daemon at this address (host:port or URL) instead of locally; output is byte-identical")

		// Freeform mode: -cca selects it; everything else is optional.
		cca1   = flag.String("cca", "", "freeform mode: CCA for flow 0 (e.g. vegas, bbr)")
		cca2   = flag.String("cca2", "", "freeform mode: CCA for flow 1 (empty = single flow)")
		fspec  = flag.String("faults", "", "freeform mode: flow 0 impairments and link schedule, semicolon-separated clauses (ge:pG2B,pB2G,pDropBad | reorder:p,delay | dup:p | flap:period,down | rate:at=mbps,...)")
		rate   = flag.Float64("rate", 48, "freeform mode: bottleneck Mbit/s")
		buffer = flag.Int("buffer", 0, "freeform mode: buffer in packets (0 = infinite)")
		rm1    = flag.Duration("rm", 50*time.Millisecond, "freeform mode: flow 0 propagation RTT")
		rm2    = flag.Duration("rm2", 50*time.Millisecond, "freeform mode: flow 1 propagation RTT")
		jspec  = flag.String("jitter", "", "freeform mode: flow 0 jitter, kind:value (const|uniform|aggregate|burst:5ms, spike:10ms/100ms)")
		loss1  = flag.Float64("loss", 0, "freeform mode: flow 0 random loss probability")
		ackPer = flag.Duration("ackagg", 0, "freeform mode: flow 0 ACK aggregation period")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatalf("starvesim: %v", err)
	}
	stopProfiles = stop
	defer stopProfiles()

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

	observing := *tracePath != "" || *metricsPath != "" || *watchEvery > 0
	if observing && *name == "all" {
		fatalf("starvesim: -trace/-metrics/-watch observe one scenario; run them with a single -scenario name")
	}
	var tcfg *network.TelemetryConfig
	if *telemetry || *watchEvery > 0 {
		tcfg = &network.TelemetryConfig{}
	}
	if *name != "" && *name != "all" && *cca1 == "" {
		// Validate before opening any output file so a typo'd scenario
		// name doesn't leave a stray empty trace behind.
		if _, ok := scenario.Registry[*name]; !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q; use -list\n", *name)
			os.Exit(1)
		}
	}

	// sink owns the optional exporters; runs hand it each Result so the
	// metrics file reflects the completed run's registry snapshot.
	sink, err := newObsSink(*tracePath, *metricsPath)
	if err != nil {
		fatalf("starvesim: %v", err)
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

	var guardOpts *guard.Options
	if *guardOn {
		guardOpts = &guard.Options{}
	}
	if *fspec != "" && *cca1 == "" {
		usagef("starvesim: -faults applies to freeform (-cca) mode; scenarios define their own impairments")
	}

	if *server != "" && *flows == "" {
		usagef("starvesim: -server runs population mode on a daemon; it needs -flows")
	}
	if *flows != "" {
		if *cca1 != "" || *name != "" {
			usagef("starvesim: -flows is its own mode; drop -cca/-scenario")
		}
		spec := scenario.PopulationSpec{
			Flows: *flows, Topology: *topology,
			RateMbps: *rate, BufferPkts: *buffer, Epsilon: *epsilon,
			Duration: *duration, Seed: *seed,
		}
		if *server != "" {
			if observing || tcfg != nil || *guardOn || *deadline > 0 {
				usagef("starvesim: -trace/-metrics/-watch/-telemetry/-guard observe local runs; they cannot attach to -server")
			}
			runServerPopulation(ctx, *server, spec)
			return
		}
		pr, err := runPopulation(spec, guardOpts, tcfg, ctx, runProbe)
		if err != nil {
			usagef("starvesim: %v", err)
		}
		fmt.Print(pr.Render())
		finishRun(ctx, sink, watch, pr.Net, "population", pr.Seed)
		return
	}

	if *cca1 != "" {
		d := *duration
		if d <= 0 {
			d = 60 * time.Second
		}
		s := *seed
		if s == 0 {
			s = 2
		}
		res, err := runCustom(customFlags{
			cca1: *cca1, cca2: *cca2,
			rateMbps: *rate, bufferPkts: *buffer,
			rm1: *rm1, rm2: *rm2,
			jitterSpec: *jspec, loss1: *loss1, faultsSpec: *fspec, ackAggregate: *ackPer,
			duration: d, seed: s, guard: guardOpts, telemetry: tcfg, ctx: ctx,
		}, runProbe)
		if err != nil {
			// Everything runCustom can fail on is configuration: a typo'd
			// CCA, jitter, or faults spec, or an invalid network config.
			usagef("starvesim: %v", err)
		}
		fmt.Println(res)
		finishRun(ctx, sink, watch, res, "custom", s)
		return
	}

	if *list || *name == "" {
		fmt.Println("available scenarios:")
		for _, n := range scenario.Names() {
			fmt.Printf("  %s\n", n)
		}
		if *name == "" && !*list {
			fmt.Println("\nrun with -scenario <name> or -scenario all")
		}
		return
	}

	opts := scenario.Opts{Seed: *seed, Duration: *duration, Probe: runProbe, Guard: guardOpts, Telemetry: tcfg, Ctx: ctx}
	if *sweepN > 0 {
		if *name == "" || *name == "all" {
			usagef("starvesim: -sweep needs a single -scenario name")
		}
		if observing || tcfg != nil {
			usagef("starvesim: -trace/-metrics/-watch/-telemetry observe one run; they cannot attach to a -sweep")
		}
		runSweep(ctx, *name, *seed, *sweepN, *jobsN, *duration, guardOpts)
		return
	}
	if *name == "all" {
		runAll(ctx, *jobsN, opts)
	}
	res := run(*name, opts)
	finishRun(ctx, sink, watch, res, *name, *seed)
}

// finishRun closes the run's observers in order — live view first (its
// final state line), then the sink (surfacing any export failure as a
// structured guard.KindExport RunError) — and exits non-zero on export or
// guard failure. A run the context stopped exits after the drain with
// stopped's status: the exporters flushed what the truncated run
// produced, and the interrupt or expired -deadline — not whatever the
// halted simulation looks like to the guard — is the outcome callers
// should see.
func finishRun(ctx context.Context, sink *obsSink, watch *watcher, res *network.Result, name string, seed int64) {
	if watch != nil {
		watch.halt()
	}
	code := 0
	if rerr := sink.finish(res, name, seed); rerr != nil {
		fmt.Fprintln(os.Stderr, rerr.Error())
		code = 1
	}
	if why, c := stopped(ctx); c != 0 {
		fmt.Fprintf(os.Stderr, "starvesim: %s; partial outputs flushed\n", why)
		stopProfiles()
		os.Exit(c)
	}
	if guardFailed(res) {
		fmt.Fprintln(os.Stderr, res.Guard.String())
		code = 1
	}
	if code != 0 {
		stopProfiles()
		os.Exit(code)
	}
}

// runAll executes every registered scenario, -jobs at a time, and prints
// the reports in sorted scenario order regardless of completion order.
// It exits the process with 1 when any guarded run failed, otherwise
// with stopped's status when the context cut the batch short.
func runAll(ctx context.Context, jobs int, opts scenario.Opts) {
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
	code := 0
	for i, out := range outputs {
		fmt.Print(out)
		if failed[i] {
			code = 1
		}
	}
	if why, c := stopped(ctx); c != 0 {
		fmt.Fprintf(os.Stderr, "starvesim: %s; completed scenarios printed\n", why)
		code = c
	}
	stopProfiles()
	os.Exit(code)
}

// runSweep runs one scenario across n consecutive seeds and prints one
// observables line per seed, in seed order.
func runSweep(ctx context.Context, name string, baseSeed int64, n, jobs int, duration time.Duration, guardOpts *guard.Options) {
	if baseSeed == 0 {
		baseSeed = 2 // the documented reference realization
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = baseSeed + int64(i)
	}
	results, err := scenario.SeedSweep(ctx, name, seeds, jobs,
		scenario.Opts{Duration: duration, Guard: guardOpts})
	if err != nil {
		if why, code := stopped(ctx); code != 0 {
			fmt.Fprintf(os.Stderr, "starvesim: %s\n", why)
			stopProfiles()
			os.Exit(code)
		}
		fatalf("starvesim: %v", err)
	}
	fmt.Printf("%s across seeds %d..%d:\n", name, seeds[0], seeds[n-1])
	code := 0
	for i, res := range results {
		fmt.Printf("  seed %d: %s\n", seeds[i], observablesLine(res))
		if guardFailed(res.Net) {
			fmt.Println(res.Net.Guard.String())
			code = 1
		}
	}
	stopProfiles()
	os.Exit(code)
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

func run(name string, opts scenario.Opts) *network.Result {
	fn := scenario.Registry[name]
	start := time.Now()
	res := fn(opts)
	fmt.Printf("%s(took %v)\n\n", res, time.Since(start).Round(time.Millisecond))
	return res.Net
}

// stopped reports whether ctx cut the runs short, and how: the phrase for
// standard error and the exit status — 1 when the -deadline budget ran
// out, 3 after an interrupt. A live context returns code 0.
func stopped(ctx context.Context) (why string, code int) {
	switch err := ctx.Err(); {
	case err == nil:
		return "", 0
	case errors.Is(err, context.DeadlineExceeded):
		return "-deadline exceeded", 1
	default:
		return "interrupted", 3
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
func (s *obsSink) finish(res *network.Result, name string, seed int64) *guard.RunError {
	exportErr := func(what string, err error) *guard.RunError {
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
		fatalf("starvesim: -metrics: scenario produced no network run")
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
