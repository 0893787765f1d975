package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"starvation/internal/obs"
)

// check is one output check; a failed one counts as a failed operation.
type check struct {
	Name string
	OK   bool
	Info string
}

// measured is what a workload's timed phase hands back.
type measured struct {
	// batchMS holds one latency per batch — the unit a client submits
	// and waits for (README: "what a batch is") — and rates one
	// jobs-per-second observation per slice; batchP50 and jobsPerS are the
	// quiet quartiles the workload made of them (stats.go, quietLow).
	batchMS, rates     []float64
	batchP50, jobsPerS float64
	attempted, failed  int
	checks             []check
	digest             string

	// flowsec is the emulated flow-seconds of results delivered during
	// flowWall (untracedWall when zero).
	flowsec  float64
	flowWall time.Duration
	// untracedWall / tracedWall sum the untraced and the traced
	// operations, pairedWall the untraced ones that have a traced twin on
	// the same inputs; refWall is the reference operation (the first),
	// whose exact simulated counts are in counts, tracedRefWall its twin.
	untracedWall, tracedWall, pairedWall time.Duration
	refWall, tracedRefWall               time.Duration
	counts                               simCounts
	nets                                 int // networks assembled by the reference operation
	probes                               map[string]*countProbe
	meters                               *ccaMeters

	// service phase observations (svc_* workloads and the ledger's
	// mini-phase): worker milliseconds per job and the simulated share.
	workerMSPerJob, simulatedShare float64
	extra                          metricSet
}

func newMeasured() *measured {
	return &measured{extra: metricSet{}}
}

func (m *measured) check(name string, ok bool, info string) {
	m.checks = append(m.checks, check{Name: name, OK: ok, Info: info})
}

// timedOp is what pairedLoop needs to know about an operation's outcome:
// how long it took and a signature of what it simulated.
type timedOp interface {
	elapsed() time.Duration
	sig() string
}

// pairedLoop is the closed-loop measured phase of the in-process emulator
// workloads. Operation n runs untraced and — when tr is set — once more
// traced on the same inputs, the two alternating which goes first; the
// loop stops when one more round, and after it the untraced repeat of
// operation 0 both callers end on, would not fit into the window, going by
// the median round and operation so far (one stalled operation must not
// end the phase). take sees every outcome; the walls, and the check that a
// traced operation realized what its untraced twin did, are kept here. It
// returns operation 0's untraced and traced outcomes (the reference
// operation).
func pairedLoop[T timedOp](m *measured, seconds float64, tr *tracer, take func(o T, traced bool), run func(n int, tr *tracer) T) (first, firstTraced T) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var rounds, ops []float64 // milliseconds
	more := func() time.Duration {
		return time.Duration((median(rounds) + median(ops)) * float64(time.Millisecond))
	}
	for n := 0; n == 0 || fits(deadline, more()); n++ {
		t0 := time.Now()
		var twin T
		if tr != nil && n%2 == 1 {
			twin = run(n, tr)
		}
		o := run(n, nil)
		take(o, false)
		m.untracedWall += o.elapsed()
		if tr != nil {
			if n%2 == 0 {
				twin = run(n, tr)
			}
			take(twin, true)
			m.tracedWall += twin.elapsed()
			m.pairedWall += o.elapsed()
			m.check(fmt.Sprintf("traced==untraced operation %d", n), twin.sig() == o.sig(), twin.sig()+" vs "+o.sig())
		}
		if n == 0 {
			first, firstTraced = o, twin
		}
		rounds, ops = append(rounds, millis(time.Since(t0))), append(ops, millis(o.elapsed()))
	}
	return first, firstTraced
}

type workload interface {
	setup() error
	measure(seconds float64, tr *tracer) *measured
	close()
}

// sizes are the repetition counts and emulated lengths of one scale: the
// benchmark's, or the smoke test's toy ones. Shapes (flow mixes, rates,
// buffers, request bodies) are the same at both.
type sizes struct {
	pairsEmu    time.Duration
	popEmu      time.Duration
	popSeeds    int
	svcWarmup   int
	figuresOnly string // "" = every section
	ledgerOnly  string // the two sections the figures ledger times
	speedupOnly string // the sections it runs at -jobs 1 and -jobs nproc
	// A set-up is repeated at least setupReps times and until setupFor has
	// passed (at most maxSetupReps times), so a 2 ms set-up is timed as
	// carefully as a 400 ms one.
	setupReps  int
	setupFor   time.Duration
	ledgerEmu  time.Duration // emulated length of the ledger's pairs passes
	ledgerSvcS float64       // seconds of the ledger's service mini-phase
	ledgerN    func(full int) int
}

var benchSizes = sizes{
	pairsEmu: pairsEmu, popEmu: popEmu, popSeeds: popSweepSeeds, svcWarmup: svcWarmup,
	ledgerOnly: "F3,T5", speedupOnly: "F5,T6.3", setupReps: 5, setupFor: time.Second, ledgerEmu: 2 * time.Second, ledgerSvcS: 1,
	ledgerN: func(n int) int { return n },
}

const maxSetupReps = 20

var workloadNames = []string{"paper_pairs", "pop_500", "figures_quick", "svc_cold", "svc_warm"}

// env is what every run shares: where the repository is, where scratch
// files go, and the figures binary built from the checkout.
type env struct {
	scratch string
	cli     *figuresCLI
	buildS  float64
	sz      sizes
}

// newEnv locates the repository (the bench module's parent), makes
// bench/out, and builds cmd/figures into it.
func newEnv(sz sizes) (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	benchDir := wd
	if _, err := os.Stat(filepath.Join(wd, "bench", "go.mod")); err == nil {
		benchDir = filepath.Join(wd, "bench") // started from the repository root
	}
	root := filepath.Dir(benchDir)
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module starvation\n") {
		return nil, fmt.Errorf("bench: %s is not inside the starvation repository (no go.mod of module starvation above it)", benchDir)
	}
	e := &env{scratch: filepath.Join(benchDir, "out"), sz: sz}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return nil, err
	}
	spreadScratch(e.scratch)
	bin, took, err := buildFigures(root, e.scratch)
	if err != nil {
		return nil, err
	}
	e.buildS = took.Seconds()
	work, err := os.MkdirTemp(e.scratch, "run-")
	if err != nil {
		return nil, err
	}
	e.cli = &figuresCLI{bin: bin, scratch: work}
	return e, nil
}

// cleanup removes the run's scratch tree (the figures binary and
// trace.json stay in bench/out). Nothing is deleted before this point:
// see spreadScratch.
func (e *env) cleanup() { os.RemoveAll(e.cli.scratch) }

// spreadScratch marks dir as a "top of directory hierarchies" (chattr +T),
// so ext4 places each run's scratch tree in a block group of its own
// instead of next to the previous run's. A service phase creates ~20 000
// small files and cleanup deletes them; on a journal-less ext4 volume (the
// sizing machine's) inodes deleted in the last minutes are skipped one by
// one by every allocation in their block group, which made file creation
// 5x slower for the next ~13 000 files and batch latency flip between
// 7 and 20 ms from run to run. Best effort: other filesystems ignore it.
func spreadScratch(dir string) { _ = exec.Command("chattr", "+T", dir).Run() }

func (e *env) workload(name string, seed int64) (workload, error) {
	switch name {
	case "paper_pairs":
		return newPairs(seed, e.sz.pairsEmu), nil
	case "pop_500":
		return newPop(seed, e.sz.popEmu, e.sz.popSeeds), nil
	case "figures_quick":
		return newFiguresWL(e.cli, e.sz.figuresOnly), nil
	case "svc_cold":
		return newSvc(seed, false, e.cli.scratch, e.sz.svcWarmup), nil
	case "svc_warm":
		return newSvc(seed, true, e.cli.scratch, e.sz.svcWarmup), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// report is one run of one workload.
type report struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int
	Failed    int
	Correct   bool
	Digest    string
	// Counts are the exact simulated statistics of the reference
	// operation; Executed is runner.executed per service batch.
	Counts   simCounts
	Executed float64
	Checks   []check
	Metrics  metricSet
}

func (r *report) failedRatio() float64 { return float64(r.Failed) / float64(r.Attempted) }

// procSnap samples the process counters the proc.* metrics are deltas of.
type procSnap struct {
	totalAlloc    uint64
	gcCPU, allCPU float64
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procSnap{totalAlloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runWorkload sets the workload up (several times, for setup_s), measures
// it for the given seconds and checks its outputs. Untraced it reports
// the end-to-end metrics; traced it reports the per-layer ledger and
// writes bench/out/trace.json.
func (e *env) runWorkload(name string, seed int64, seconds float64, traced bool) (*report, error) {
	wl, err := e.workload(name, seed)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	var setups []float64
	s0 := time.Now()
	for r := 0; r < e.sz.setupReps || (r < maxSetupReps && time.Since(s0) < e.sz.setupFor); r++ {
		wl.close()
		t0 := time.Now()
		if err := wl.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	p0 := snapProc()
	m := wl.measure(seconds, tr)
	p1 := snapProc()
	rss := peakRSSMB()
	wl.close()

	rep := &report{Workload: name, Seed: seed, Traced: traced, Digest: m.digest, Counts: m.counts,
		Executed: m.extra.val("runner.executed"), Metrics: metricSet{}}
	if !traced {
		rep.Metrics.putSamples("setup_s", "s", quietLow(setups), setups)
		rep.Metrics.putSamples("jobs_per_s", "1/s", m.jobsPerS, m.rates)
		rep.Metrics.putSamples("batch_ms_p50", "ms", m.batchP50, m.batchMS)
	} else {
		x := m.extra
		if _, ok := x["proc.peak_rss_mb"]; !ok {
			x.put("proc.peak_rss_mb", "MB", rss)
		}
		x.put("proc.alloc_mb", "MB", float64(p1.totalAlloc-p0.totalAlloc)/1e6)
		// The runtime refreshes its CPU classes at each GC cycle; a phase
		// without one (figures_quick, where the work is in a child) reads 0.
		gcShare := 0.0
		if cpu := p1.allCPU - p0.allCPU; cpu > 0 {
			gcShare = (p1.gcCPU - p0.gcCPU) / cpu
		}
		x.put("proc.gc_cpu_share", "share", gcShare)
		x.put("proc.build_s", "s", e.buildS)
		e.perLayer(name, seed, m, tr, rep)
	}
	rep.Checks = m.checks
	rep.Attempted = m.attempted + len(m.checks)
	rep.Failed = m.failed
	for _, c := range m.checks {
		if !c.OK {
			rep.Failed++
		}
	}
	rep.Correct = rep.Failed == 0 && len(m.batchMS) > 0
	if traced {
		path := filepath.Join(e.scratch, "trace.json")
		if err := tr.write(path, traceFile{Workload: name, Seed: seed, Metrics: rep.Metrics}); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// perLayer fills rep.Metrics with every per-layer metric: the fixed
// ledger, then the named workload's own counts and shares.
func (e *env) perLayer(name string, seed int64, m *measured, tr *tracer, rep *report) {
	ms := e.runLedger(name, seed, m, tr)
	attribute(name, m, tr, ms)
	for _, d := range perLayer() {
		v, ok := ms[d.Name]
		if !ok {
			m.check("per-layer metric "+d.Name+" produced", false, "missing")
		}
		v.Unit = d.Unit
		rep.Metrics[d.Name] = v
	}
}

// runLedger measures what every traced run measures whatever its
// workload: the isolated drivers, the overhead passes, the CLI's two big
// sections, and — when the workload is not itself a service one — a short
// svc_cold phase for the service layer's client-side numbers.
func (e *env) runLedger(name string, seed int64, m *measured, tr *tracer) metricSet {
	ms := metricSet{}
	lg := &ledger{seed: seed, scratch: e.cli.scratch, ms: ms, n: e.sz.ledgerN}
	sp := tr.begin("ledger", "ledger.drivers", 0)
	lg.run()
	tr.end(sp)
	m.checks = append(m.checks, lg.checks...)
	m.checks = append(m.checks, overheadPasses(seed, e.sz.ledgerEmu, ms, tr)...)
	m.checks = append(m.checks, figuresLedger(e.cli, e.sz.ledgerOnly, e.sz.speedupOnly, ms, tr)...)

	svcM, note := m, ""
	if !strings.HasPrefix(name, "svc_") {
		// Not a service workload: the service layer's client-side numbers
		// come from a short svc_cold phase of the ledger's own.
		mini := newSvc(mix(seed, 14), false, e.cli.scratch, 8)
		note = "ledger svc_cold phase"
		if err := mini.setup(); err != nil {
			m.check("ledger service phase", false, err.Error())
		} else {
			svcM = mini.measure(e.sz.ledgerSvcS, tr)
			m.checks = append(m.checks, svcM.checks...)
		}
		mini.close()
	}
	local := localRunMS(seed, e.sz.ledgerN(20))
	for k, v := range svcM.extra {
		if strings.HasPrefix(k, "service.") || strings.HasPrefix(k, "runner.") {
			v.Note = note
			ms[k] = v
		}
	}
	ms.putNote("service.overhead_ms_per_job", "ms", svcM.workerMSPerJob-svcM.simulatedShare*local, note)
	return ms
}

// attribute adds the named workload's own numbers to the ledger's: the
// exact counts of its reference operation, and each layer's share of that
// operation's wall — metered where the public API admits a wrapper,
// otherwise counts × the ledger's isolated cost.
func attribute(name string, m *measured, tr *tracer, ms metricSet) {
	c := m.counts
	na := ""
	if name == "figures_quick" {
		na = "n/a: the CLI is a black box"
	} else if name == "svc_warm" {
		na = "n/a: nothing simulates"
	}
	count := func(name string, v int64) { ms.putNote(name, "count", float64(v), na) }
	count("sim.events_fired", int64(c.eventsFired))
	count("sim.events_scheduled", int64(c.eventsScheduled))
	count("netem.pkts_enqueued", c.enqueued)
	count("netem.pkts_dropped", c.dropped)
	count("netem.pkts_delivered", c.delivered)
	count("endpoint.acks_received", c.acks)
	count("endpoint.retransmits", c.retransmits)
	// The sender counts window changes only while a probe is attached, so
	// this one comes from the traced reference operation's probes.
	var cwnd int64
	for _, cp := range m.probes {
		cwnd += cp.n(obs.EvCwndUpdate)
	}
	count("endpoint.cwnd_updates", cwnd)
	retx := 0.0
	if c.sent > 0 {
		retx = float64(c.retransmits) / float64(c.sent)
	}
	ms.putNote("endpoint.retx_ratio", "ratio", retx, na)

	// shareWall is the wall the reference operation's shares are of: the
	// operation itself, or for a service batch the worker time it took.
	shareWall := m.refWall.Seconds()
	if strings.HasPrefix(name, "svc_") {
		shareWall = svcSweepSeeds * m.workerMSPerJob / 1e3
	}
	share := func(name string, busy float64, note string) float64 {
		v := 0.0
		if shareWall > 0 && na == "" {
			v = busy / shareWall
		} else {
			note = na
		}
		ms.putNote(name, "share", v, note)
		return v
	}
	nsPerEvent := 0.0
	if c.eventsFired > 0 {
		nsPerEvent = shareWall * 1e9 / float64(c.eventsFired)
	}
	ms.putNote("sim.ns_per_event", "ns", nsPerEvent, na)
	attributed := share("sim.queue_share", float64(c.eventsFired)*ms.val("sim.schedule_fire_ns")/1e9, "computed")

	if m.meters != nil {
		// pop_500: the wrappers counted every call and timed one in 64,
		// inside the traced reference operation.
		tw := m.tracedRefWall.Seconds()
		ms.put("cca.on_ack_calls", "count", float64(m.meters.ack.calls))
		ms.put("cca.on_loss_calls", "count", float64(m.meters.loss.calls))
		ms.put("cca.on_tick_calls", "count", float64(m.meters.tick.calls))
		ms.put("cca.on_send_calls", "count", float64(m.meters.send.calls))
		ms.putNote("cca.busy_share", "share", m.meters.ccaBusy().Seconds()/tw, "sampled 1/64")
		ms.putNote("netem.jitter_busy_share", "share", m.meters.jitter.busy().Seconds()/tw, "sampled 1/64")
		attributed += ms.val("cca.busy_share") + ms.val("netem.jitter_busy_share")
	} else {
		// No flow specs to wrap: ACKs are counted (by the probe where a
		// call assembles several networks) and multiplied by the isolated
		// cost of the CCA that took them.
		count("cca.on_ack_calls", c.acks)
		count("cca.on_loss_calls", c.lossEvents)
		ms.putNote("cca.on_tick_calls", "count", 0, "n/a: needs a CCA wrapper")
		ms.putNote("cca.on_send_calls", "count", 0, "n/a: needs a CCA wrapper")
		var ccaNS, acks float64
		for id, cp := range m.probes {
			ccaNS += float64(cp.n(obs.EvAckRecv)) * ms.val("cca."+pairsCCA[id]+".on_ack_ns")
			acks += float64(cp.n(obs.EvAckRecv))
		}
		if strings.HasPrefix(name, "svc_") { // a service batch: vegas and reno: four flows each
			acks = float64(c.acks)
			ccaNS = acks * (ms.val("cca.vegas.on_ack_ns") + ms.val("cca.reno.on_ack_ns")) / 2
		}
		attributed += share("cca.busy_share", ccaNS/1e9, "computed")
		attributed += share("netem.jitter_busy_share",
			(float64(c.delivered)+acks)*ms.val("netem.jitter_delay_ns")/1e9, "computed")
	}

	// The network layer's own work around the event loop: one build or
	// reset, collect and detach per network assembled.
	var netUS float64
	switch name {
	case "paper_pairs":
		netUS = float64(m.nets) * ms.val("network.reset_us.pair")
	case "pop_500":
		netUS = ms.val("network.build_us.pop500") + float64(m.nets-1)*ms.val("network.reset_us.pop500")
	}
	attributed += share("network.run_busy_share", netUS/1e6, "computed")
	parse := 0.0
	if m.tracedWall > 0 {
		parse = tr.total("scenario.config").Seconds() / m.tracedWall.Seconds()
	}
	ms.putNote("scenario.parse_busy_share", "share", parse, "spans")
	attributed += parse
	ms.putNote("bench.unattributed_share", "share", 1-attributed, "1 - the shares above")
	overhead := 1.0
	if m.pairedWall > 0 {
		overhead = m.tracedWall.Seconds() / m.pairedWall.Seconds()
	}
	ms.put("bench.trace_overhead_ratio", "ratio", overhead)

	flowWall := m.flowWall
	if flowWall == 0 {
		flowWall = m.untracedWall
	}
	fps := 0.0
	if flowWall > 0 {
		fps = m.flowsec / flowWall.Seconds()
	}
	if fps > 0 {
		ms.put("core.flowsec_per_s", "1/s", fps)
	} else {
		ms.putNote("core.flowsec_per_s", "1/s", 0, na)
	}
	for k, v := range m.extra {
		if strings.HasPrefix(k, "proc.") {
			ms[k] = v
		}
	}

	// Counters go into the trace file beside the spans they were taken at.
	for _, cp := range m.probes {
		for t := obs.EventType(0); t <= obs.EvStarveEnd; t++ {
			if n := cp.n(t); n > 0 {
				tr.count("probe."+t.String(), n)
			}
		}
	}
	if mt := m.meters; mt != nil {
		tr.count("cca.on_ack", mt.ack.calls)
		tr.count("cca.on_loss", mt.loss.calls)
		tr.count("cca.on_tick", mt.tick.calls)
		tr.count("cca.on_send", mt.send.calls)
		tr.count("jitter.delay", mt.jitter.calls)
	}
}
