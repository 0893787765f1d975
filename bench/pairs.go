package main

import (
	"fmt"
	"sort"
	"time"

	"starvation/internal/network"
	"starvation/internal/obs"
	"starvation/internal/scenario"
)

// pairsEmu is the emulated length of one paper_pairs scenario call. The
// issue sized the workload at 4 passes × 20 emulated s; the same emulated
// time is cut into many more, shorter realizations here because the cost of
// a §5 realization swings with its seed (at 5 emulated s a starved Allegro
// flow sends a quarter of the packets, and a few bbr-two seeds in a hundred
// fire up to twelve times the events), and only more realizations average
// that out: seeds alone spread a run's pass time by 4.7 % at 5 s × 21
// passes and by 2.9 % at 2 s × 55 (README, "Workloads").
const pairsEmu = 2 * time.Second

// pairsCCA names the one CCA every flow of a scenario runs — what the
// computed cca.busy_share multiplies ACK counts by.
var pairsCCA = map[string]string{
	"algo1-ablation": "algo1", "algo1-fair": "algo1",
	"allegro-both": "allegro", "allegro-burst": "allegro", "allegro-loss": "allegro", "allegro-single": "allegro",
	"bbr-two": "bbr", "copa-single": "copa", "copa-two": "copa", "ecn-fairness": "reno",
	"fig7-cubic": "cubic", "fig7-reno": "reno", "quickstart-vegas": "vegas",
	"vegas-jitter": "vegas", "vivace-ackagg": "vivace",
}

// simCounts are exact simulated statistics of a fixed unit of work. They
// depend on -seed and the code, never on the machine.
type simCounts struct {
	eventsFired, eventsScheduled      uint64
	enqueued, dropped, delivered      int64
	acks, sent, retransmits, cwndUpds int64
	lossEvents                        int64
}

func (c *simCounts) addNet(r *network.Result) {
	g := r.Obs.Global
	c.eventsFired += g.SimEventsFired
	c.eventsScheduled += g.SimEventsScheduled
	c.enqueued += g.PacketsEnqueued
	c.dropped += g.PacketsDropped
	c.delivered += g.PacketsDelivered
	c.acks += g.AcksReceived
	for i, f := range r.Obs.Flows {
		c.sent += f.PacketsSent
		c.retransmits += f.Retransmits
		c.cwndUpds += f.CwndUpdates
		c.lossEvents += int64(r.Flows[i].Stat.LossEvents + r.Flows[i].Stat.Timeouts)
	}
}

// digestFlows folds the per-flow statistics a performance change must not
// move: delivered and dropped packets and acknowledged bytes.
func digestFlows(d *digest, r *network.Result) {
	for _, f := range r.Obs.Flows {
		d.add("%s:%d/%d/%d", f.Name, f.PacketsDelivered, f.PacketsDropped, f.BytesAcked)
	}
}

// digestNet is digestFlows plus the event count of the run.
func digestNet(d *digest, r *network.Result) {
	d.add("ev=%d/%d", r.Obs.Global.SimEventsFired, r.Obs.Global.SimEventsScheduled)
	digestFlows(d, r)
}

func digestScenario(d *digest, id string, r *scenario.Result) {
	keys := make([]string, 0, len(r.Observables))
	for k := range r.Observables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.add("[%s]", id)
	for _, k := range keys {
		d.add("%s=%v", k, r.Observables[k])
	}
	if r.Net != nil {
		digestNet(d, r.Net)
	}
}

// pairs is the paper_pairs workload: the fifteen two-flow §5 scenarios run
// back to back on one goroutine, each pass through a network.Session of its
// own. Eight of the fifteen assemble the same shape, so the recycled path
// runs within a pass; a session kept across passes would make a call's cost
// depend on every call before it (sim.Reset walks the arena's high-water
// mark, which one heavy bbr-two seed raises for good: README, "Known
// defects"), and a benchmark's operations must not.
type pairs struct {
	seed int64
	emu  time.Duration
	// flows[id] is how many flows one call of the scenario starts, summed
	// over every network it assembles (algo1-ablation runs three).
	flows map[string]int
}

func newPairs(seed int64, emu time.Duration) *pairs {
	return &pairs{seed: seed, emu: emu}
}

// setup runs the warm-up pass that grows the heap before timing; the pass
// carries a counting probe, which is also how the flow-seconds of each
// scenario are learned rather than hard-coded.
func (p *pairs) setup() error {
	sess := network.NewSession()
	p.flows = map[string]int{}
	for k, id := range paperIDs {
		var cp countProbe
		res := scenario.Registry[id](scenario.Opts{
			Seed: mix(p.seed, 1, int64(k)), Duration: time.Second, Session: sess, Probe: &cp,
		})
		if res.Net == nil || cp.starts == 0 {
			return fmt.Errorf("paper_pairs: %s assembled no network", id)
		}
		p.flows[id] = int(cp.starts)
	}
	return nil
}

func (p *pairs) passFlowSec() float64 {
	var fs float64
	for _, n := range p.flows {
		fs += float64(n) * p.emu.Seconds()
	}
	return fs
}

// pairsPass is the outcome of one pass over the fifteen scenarios.
type pairsPass struct {
	callMS  map[string]float64
	wall    time.Duration
	failed  int
	digests map[string]string
	// flowDigest covers per-flow statistics only (no event counts).
	flowDigest string
	counts     simCounts
	nets       int
	// probes holds, per scenario, the traced pass's event counts.
	probes map[string]*countProbe
}

func (pp *pairsPass) elapsed() time.Duration { return pp.wall }
func (pp *pairsPass) sig() string            { return pp.digest() }

func (pp *pairsPass) digest() string {
	var d digest
	for _, id := range paperIDs {
		d.add("%s:%s", id, pp.digests[id])
	}
	return d.String()
}

// pass runs the fifteen scenarios with the seeds of pass number n. opts
// is the template (Probe/Guard/Telemetry for the overhead passes); tr
// non-nil records one span per scenario call and installs counting probes.
func (p *pairs) pass(n int, opts scenario.Opts, tr *tracer) *pairsPass {
	out := &pairsPass{callMS: map[string]float64{}, digests: map[string]string{}, probes: map[string]*countProbe{}}
	var flows digest
	op := fmt.Sprintf("pass-%d", n)
	root := tr.begin(op, "paper_pairs.pass", 0)
	t0 := time.Now()
	sess := network.NewSession()
	for k, id := range paperIDs {
		o := opts
		o.Seed = mix(p.seed, 2, int64(n), int64(k))
		o.Duration = p.emu
		o.Session = sess
		if tr != nil {
			cp := &countProbe{}
			out.probes[id] = cp
			o.Probe = obs.Multi(opts.Probe, cp)
		}
		sp := tr.begin(op, "scenario."+id, root)
		c0 := time.Now()
		res := scenario.Registry[id](o)
		out.callMS[id] = millis(time.Since(c0))
		tr.end(sp)
		if res.Net == nil || res.Net.Ledger.Check() != nil {
			out.failed++
			continue
		}
		var d digest
		digestScenario(&d, id, res)
		out.digests[id] = d.String()
		digestFlows(&flows, res.Net)
		out.counts.addNet(res.Net)
		out.nets += p.flows[id] / len(res.Net.Flows)
	}
	out.wall = time.Since(t0)
	out.flowDigest = flows.String()
	tr.end(root)
	return out
}

// freshEqualsSession re-runs one scenario of pass n without a session and
// compares digests: the recycled network must realize exactly what a
// freshly built one does.
func (p *pairs) freshEqualsSession(n int, ref *pairsPass) check {
	k := int(p.seed % int64(len(paperIDs)))
	if k < 0 {
		k = -k
	}
	id := paperIDs[k]
	res := scenario.Registry[id](scenario.Opts{Seed: mix(p.seed, 2, int64(n), int64(k)), Duration: p.emu})
	var d digest
	digestScenario(&d, id, res)
	return check{
		Name: "fresh==session " + id,
		OK:   d.String() == ref.digests[id],
		Info: fmt.Sprintf("fresh %s session %s", d.String(), ref.digests[id]),
	}
}

// measure runs passes while another one fits into the window, the last of
// them repeating pass 0's seeds — timed like any other, and the determinism
// check.
// In traced mode passes come in (untraced, traced) pairs on the same seeds.
func (p *pairs) measure(seconds float64, tr *tracer) *measured {
	m := newMeasured()
	take := func(pp *pairsPass, traced bool) {
		m.attempted += len(paperIDs)
		m.failed += pp.failed
		if traced {
			return
		}
		m.flowsec += p.passFlowSec()
		m.batchMS = append(m.batchMS, millis(pp.wall))
		m.rates = append(m.rates, float64(len(paperIDs))/pp.wall.Seconds())
	}
	first, firstTraced := pairedLoop(m, seconds, tr, take, func(n int, tr *tracer) *pairsPass {
		return p.pass(n, scenario.Opts{}, tr)
	})
	again := p.pass(0, scenario.Opts{}, nil)
	take(again, false)
	m.untracedWall += again.wall
	m.check("repeat of pass 0", again.digest() == first.digest(), again.digest()+" vs "+first.digest())
	m.checks = append(m.checks, p.freshEqualsSession(0, first))

	m.batchP50 = quietLow(m.batchMS)
	m.jobsPerS = quietHigh(m.rates)
	m.digest = first.digest()
	m.counts, m.nets, m.refWall = first.counts, first.nets, first.wall
	if firstTraced != nil {
		m.probes, m.tracedRefWall = firstTraced.probes, firstTraced.wall
	}
	return m
}

func (p *pairs) close() {}
