// Package network assembles the paper's topology (§3): per-flow senders
// feeding one shared FIFO bottleneck, followed by per-flow propagation
// delay and a per-flow bounded non-congestive delay element, then the
// receiver, whose ACKs return through an optional ACK-path delay element.
// It also runs the simulation and collects per-flow traces and statistics.
package network

import (
	"context"
	"fmt"
	"time"

	"starvation/internal/cca"
	"starvation/internal/endpoint"
	"starvation/internal/guard"
	"starvation/internal/netem"
	"starvation/internal/netem/faults"
	"starvation/internal/netem/jitter"
	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/rng"
	"starvation/internal/sim"
	"starvation/internal/trace"
	"starvation/internal/units"
)

// FlowSpec describes one flow of a scenario.
type FlowSpec struct {
	// Name labels the flow in results (defaults to "flowN").
	Name string
	// Cohort labels the flow's population cohort (e.g. its CCA name in a
	// mixed-CCA experiment). Per-cohort aggregation in results and obs
	// snapshots groups flows by this label; empty means uncohorted.
	Cohort string
	// Path lists the link indices (into Config.Links) the flow traverses,
	// in order. Nil means every link in index order — the single
	// bottleneck, or the full parking-lot chain. A path may not visit a
	// link twice.
	Path []int
	// Alg is the flow's congestion control algorithm (required).
	Alg cca.Algorithm
	// Rm is the flow's minimum propagation RTT (required, > 0).
	Rm time.Duration
	// FwdJitter is the non-congestive delay policy on the data path
	// (defaults to jitter.None).
	FwdJitter jitter.Policy
	// AckJitter is the non-congestive delay policy on the ACK path.
	AckJitter jitter.Policy
	// Ack selects the receiver's acknowledgment policy.
	Ack endpoint.AckConfig
	// LossProb is the probability of independent random loss on the data
	// path (the §5.4 element).
	LossProb float64
	// GE inserts a Gilbert–Elliott bursty-loss gate on the data path,
	// ahead of the Bernoulli gate; nil leaves it out.
	GE *faults.GEConfig
	// StartAt delays the flow's first transmission.
	StartAt time.Duration
}

// validate reports the first problem with the spec on its own; the
// package-level Validate also checks its path against the topology.
func (spec FlowSpec) validate() error {
	if spec.Alg == nil {
		return fmt.Errorf("has no CCA")
	}
	if spec.Rm <= 0 {
		return fmt.Errorf("has no Rm")
	}
	if !(spec.LossProb >= 0 && spec.LossProb <= 1) { // NaN fails too
		return fmt.Errorf("loss probability %g outside [0, 1]", spec.LossProb)
	}
	if spec.StartAt < 0 {
		return fmt.Errorf("negative StartAt %v", spec.StartAt)
	}
	for _, j := range spec.Path {
		if j < 0 {
			return fmt.Errorf("negative path link index %d", j)
		}
	}
	if spec.GE != nil {
		if err := spec.GE.Validate(); err != nil {
			return fmt.Errorf("ge: %w", err)
		}
	}
	return nil
}

// sampleEvery is the trace sampling interval: the stride of the rate, cwnd
// and queue-depth traces, of the rate-sample events a Probe receives, and
// of the flight recorder's windows.
const sampleEvery = 100 * time.Millisecond

// Config describes the shared bottleneck and run parameters.
type Config struct {
	// Links, when non-nil, describes a multi-link topology (parking-lot
	// chain, shared-uplink fan-in); flows pick their route with
	// FlowSpec.Path. When nil, the legacy single-bottleneck fields below
	// (Rate, BufferBytes, Marker) define the one shared link, wired
	// exactly as before the topology layer — fixed-seed realizations are
	// bit-identical. The two styles are mutually exclusive.
	Links []LinkSpec
	// Bottleneck is the index of the link reported as "the" bottleneck:
	// Result.LinkRate, the queue-depth trace, and rate-sample events read
	// this link (e.g. the shared uplink of a fan-in). Must be 0 when Links
	// is nil.
	Bottleneck int

	// Rate is the bottleneck link rate C (required when Links is nil).
	Rate units.Rate
	// BufferBytes is the drop-tail buffer size; 0 means effectively
	// infinite (the ideal-path queue of Definition 1).
	BufferBytes int
	// Marker installs an AQM policy that ECN-marks arriving packets
	// (netem.REDMarker); nil marks nothing.
	Marker netem.Marker
	// Guard enables the run-guard layer: a stall check on the receivers'
	// delivery counters every guard.CheckEvery and at the end of the run,
	// plus the end-of-run conservation check, reported in Result.Guard.
	// It reads counters only, so it schedules no events and emits
	// nothing. Nil disables the layer; the conservation ledger in
	// Result.Ledger is filled either way. A wall-clock budget is a
	// deadline on Ctx, not a guard setting.
	Guard *guard.Options
	// Seed feeds all randomness in the run.
	Seed int64
	// Ctx, when non-nil, cancels the run: the event loop checks it at
	// run-tick granularity and halts promptly once it expires, so a
	// batch driver's deadline actually stops the simulation instead of
	// abandoning a goroutine that runs forever. Like Probe and Guard it
	// is observation-only — a run with a context is event-for-event
	// identical to one without until cancellation.
	Ctx context.Context
	// Probe receives the packet-lifecycle event stream from every element
	// (bottleneck, loss gates, endpoints) plus periodic rate samples. Nil
	// (the default) disables event emission; the counters registry in
	// Result.Obs is populated either way.
	Probe obs.Probe
	// Telemetry enables the flight recorder: windowed per-flow series, the
	// online starvation-episode detector, run-phase spans, and the
	// self-telemetry sampler, reported in Result.Telemetry. Observation-
	// only, like Probe: it neither schedules events nor draws randomness,
	// so fixed-seed realizations are bit-identical with it on or off.
	Telemetry *TelemetryConfig
}

// Flow is the instantiated per-flow pipeline with its traces.
type Flow struct {
	Spec     FlowSpec
	ID       packet.FlowID
	Sender   *endpoint.Sender
	Receiver *endpoint.Receiver
	FwdBox   *netem.DelayBox
	AckBox   *netem.AckDelayBox

	RTTTrace  trace.Series // RTT seconds vs time
	RateTrace trace.Series // windowed throughput (bit/s) vs time
	CwndTrace trace.Series // cwnd bytes vs time

	gate             *netem.LossGate // random-loss element, nil unless LossProb > 0
	ge               *faults.GEGate  // bursty-loss element, nil unless Spec.GE is set
	rateSamples      int64
	lastSampledAcked int64
	// rttHook feeds RTTTrace from the sender's ACK path; bound once at
	// wiring and installed as Sender.AckTraceHook on every run.
	rttHook func(now, rtt time.Duration, ackedBytes int)

	// path is the resolved link route (never nil after wiring).
	path []int
	// hopTransit counts packets currently between two links of the path
	// (departed one bottleneck, propagating toward the next) — a gauge for
	// the conservation ledger.
	hopTransit int64
	// The run guard's stall state: the receiver count at the last check,
	// the time of the last check that saw it move (StartAt until the
	// first delivery), and a latch so each stall episode reports once.
	checkedReceived int64
	lastProgress    time.Duration
	stalled         bool
}

// Network is a fully wired scenario ready to run.
type Network struct {
	Sim *sim.Simulator
	// Link is the reporting bottleneck (Links[Config.Bottleneck]); kept as
	// a field because single-bottleneck call sites address it directly.
	Link *netem.Link
	// Links are all bottlenecks of the topology in index order; a classic
	// single-bottleneck network has exactly one.
	Links []*netem.Link
	Flows []*Flow
	cfg   Config

	// linkSpecs are the resolved link descriptions (legacy fields fold
	// into a one-element slice). nextHop[j][flow] is the link a packet of
	// the flow enters after departing link j, -1 for the Rm/jitter stage.
	linkSpecs []LinkSpec
	nextHop   [][]int32
	// hops[j] holds the packets propagating from link j to the next link
	// of their path (HopDelay); every packet in it has the same delay, so
	// they arrive in the order they departed.
	hops []sim.Lane[packet.Packet]

	report    guard.Report
	telemetry *telemetryRecorder

	// sampleFn is the sample method bound once so the self-rescheduling
	// trace sampler never re-binds a method value.
	sampleFn func()

	QueueTrace trace.Series // reporting-bottleneck queue depth bytes vs time
	// LinkQueues holds one queue-depth trace per link, filled only for
	// multi-link topologies (a single bottleneck keeps just QueueTrace).
	LinkQueues []trace.Series
}

// validate reports the first problem with the bottleneck configuration.
func (cfg Config) validate() error {
	if len(cfg.Links) > 0 {
		// Topology mode: the legacy single-bottleneck fields must stay
		// zero so a config cannot describe two contradictory networks.
		if cfg.Rate != 0 || cfg.BufferBytes != 0 || cfg.Marker != nil {
			return fmt.Errorf("Links is set: leave the legacy single-bottleneck fields (Rate, BufferBytes, Marker) zero and describe every link in Links")
		}
		if cfg.Bottleneck < 0 || cfg.Bottleneck >= len(cfg.Links) {
			return fmt.Errorf("bottleneck index %d out of range [0, %d)", cfg.Bottleneck, len(cfg.Links))
		}
		for i, ls := range cfg.Links {
			if err := ls.validate(); err != nil {
				return fmt.Errorf("link %d: %w", i, err)
			}
		}
		return nil
	}
	if cfg.Bottleneck != 0 {
		return fmt.Errorf("bottleneck index %d without Links", cfg.Bottleneck)
	}
	if err := checkRate("bottleneck", cfg.Rate); err != nil {
		return err
	}
	if cfg.BufferBytes < 0 {
		return fmt.Errorf("negative buffer %d bytes", cfg.BufferBytes)
	}
	return nil
}

// Validate reports the first problem with a configuration and its flows,
// with exactly the error NewChecked and Session.RunWindow fail with: the
// one validation every entry point runs, and the one callers use to check
// a configuration ahead of time without wiring anything.
func Validate(cfg Config, specs ...FlowSpec) error {
	if err := cfg.validate(); err != nil {
		return fmt.Errorf("network: %w", err)
	}
	nLinks := len(cfg.linksOf())
	for i, spec := range specs {
		if err := spec.validate(); err != nil {
			return fmt.Errorf("network: flow %d %w", i, err)
		}
		if err := validatePath(spec.Path, nLinks); err != nil {
			return fmt.Errorf("network: flow %d: %w", i, err)
		}
	}
	return nil
}

// NewChecked assembles the topology, returning an error for invalid
// configuration instead of panicking — the entry point for user-supplied
// (CLI) configs, where a typo is a runtime condition, not a bug.
func NewChecked(cfg Config, specs ...FlowSpec) (*Network, error) {
	if err := Validate(cfg, specs...); err != nil {
		return nil, err
	}
	n := wire(len(cfg.linksOf()), specs)
	n.configure(cfg, specs)
	return n, nil
}

// New assembles the topology. It panics on invalid specs (missing CCA or
// Rm): these are programming errors in scenario definitions, not runtime
// conditions. CLI paths should use NewChecked.
func New(cfg Config, specs ...FlowSpec) *Network {
	n, err := NewChecked(cfg, specs...)
	if err != nil {
		panic(err.Error())
	}
	return n
}

// chain is the set of impairment elements on a flow's forward path. With
// the link count and the flow's resolved path it is the network's shape:
// what wire bakes into the element graph and what a Session keys its
// cache on. Everything else about a configuration is a run parameter.
type chain byte

const (
	chainLoss chain = 1 << iota
	chainGE
)

func chainOf(spec FlowSpec) chain {
	var c chain
	if spec.LossProb > 0 {
		c |= chainLoss
	}
	if spec.GE != nil {
		c |= chainGE
	}
	return c
}

// wire allocates a network of the given shape: the simulator, the links,
// each flow's element chain and the closures that bind them. It reads
// nothing of specs but the shape (chainOf and the path); every element is
// built with placeholder parameters and must be configured before a run.
func wire(nLinks int, specs []FlowSpec) *Network {
	s := sim.New(0)
	n := &Network{Sim: s}
	n.sampleFn = n.sample

	// Each link dispatches departing packets to the owning flow's next
	// stage: the next link of its path (after the hop propagation delay)
	// or, past the last link, the flow's Rm/jitter stage.
	n.Links = make([]*netem.Link, nLinks)
	n.hops = make([]sim.Lane[packet.Packet], nLinks)
	n.nextHop = make([][]int32, nLinks)
	for j := range n.Links {
		j := j
		n.Links[j] = netem.NewLink(s, 0, 0, func(p packet.Packet) {
			n.forward(j, p)
		})
		n.hops[j].Init(s, func(p packet.Packet) {
			n.Flows[p.Flow].hopTransit--
			n.Links[n.nextHop[j][p.Flow]].Enqueue(p)
		})
		n.nextHop[j] = make([]int32, len(specs))
	}
	if nLinks > 1 {
		n.LinkQueues = make([]trace.Series, nLinks)
	}

	n.Flows = make([]*Flow, len(specs))
	for i, spec := range specs {
		f := &Flow{ID: packet.FlowID(i), path: pathOf(spec, nLinks)}
		n.Flows[i] = f
		for pos, j := range f.path {
			next := int32(-1)
			if pos+1 < len(f.path) {
				next = int32(f.path[pos+1])
			}
			n.nextHop[j][i] = next
		}

		// Reverse path: ack jitter box -> sender.
		f.AckBox = netem.NewAckDelayBox(s, nil, func(a packet.Ack) {
			f.Sender.OnAck(a)
		})
		// Receiver feeds the ack box.
		f.Receiver = endpoint.NewReceiver(s, f.ID, endpoint.AckConfig{}, f.AckBox.Send)
		// Forward path tail: jitter box -> receiver.
		f.FwdBox = netem.NewDelayBox(s, nil, f.Receiver.OnPacket)

		// Forward path head, built back to front so packets traverse
		// sender -> GE gate -> loss gate -> first link of the flow's
		// path. Each gate owns a generator, seeded per run by configure
		// from rng.Derive's stream for it, so adding flows or enabling
		// one gate never perturbs another's realization.
		var intoLink netem.PacketHandler = n.Links[f.path[0]].Enqueue
		c := chainOf(spec)
		if c&chainLoss != 0 {
			f.gate = netem.NewLossGate(0, rng.New(0), intoLink)
			intoLink = f.gate.Send
		}
		if c&chainGE != 0 {
			f.ge = faults.NewGEGate(faults.GEConfig{}, rng.New(0), intoLink)
			intoLink = f.ge.Send
		}
		f.Sender = endpoint.NewSender(s, f.ID, nil, 0, intoLink)
		f.rttHook = func(now, rtt time.Duration, acked int) {
			if rtt > 0 {
				f.RTTTrace.Add(now, rtt.Seconds())
			}
		}
	}
	return n
}

// configure applies one run's parameters to a wired network of matching
// shape. It is the only place they are applied — on a network's first run
// and on every later one — so a recycled network behaves bit-identically
// to a new one (the golden fresh-vs-reused parity test pins that). The
// simulator resets first: that invalidates every outstanding timer
// handle, which is why the element Resets zero their handles and never
// cancel them.
func (n *Network) configure(cfg Config, specs []FlowSpec) {
	n.Sim.Reset(cfg.Seed)
	if cfg.Ctx != nil {
		n.Sim.SetContext(cfg.Ctx)
	}
	n.report = guard.Report{}
	// Flow names must be resolved before the recorder labels its flows and
	// before any element captures the probe chain.
	for i := range specs {
		if specs[i].Name == "" {
			specs[i].Name = fmt.Sprintf("flow%d", i)
		}
	}
	n.linkSpecs = cfg.linksOf()
	n.telemetry = nil
	if cfg.Telemetry != nil {
		// The recorder folds raw events; its derived events (phases,
		// episode boundaries) go to the pre-existing chain, so an attached
		// JSONL trace carries them inline. Fair share reads the configured
		// reporting-bottleneck rate — the same denominator the population
		// statistics use. It is observation-only and its parameters may
		// change freely between runs, so it is built per run, not recycled.
		var fair float64
		if r := n.linkSpecs[cfg.Bottleneck].Rate; r > 0 && len(specs) > 0 {
			fair = float64(r) / float64(len(specs))
		}
		n.telemetry = newTelemetryRecorder(cfg.Telemetry, fair, cfg.Probe, specs)
		cfg.Probe = obs.Multi(cfg.Probe, n.telemetry)
	}
	n.cfg = cfg

	for j := range n.linkSpecs {
		ls := &n.linkSpecs[j]
		if ls.Name == "" {
			ls.Name = fmt.Sprintf("link%d", j)
		}
		link := n.Links[j]
		link.Reset(ls.Rate, ls.BufferBytes)
		n.hops[j].Reset()
		link.SetMarker(ls.Marker)
		link.SetProbe(cfg.Probe)
	}
	n.Link = n.Links[cfg.Bottleneck]
	n.QueueTrace.Reset()
	for j := range n.LinkQueues {
		n.LinkQueues[j].Reset()
		n.LinkQueues[j].Name = n.linkSpecs[j].Name + "_queue_bytes"
	}

	for i, spec := range specs {
		if spec.FwdJitter == nil {
			spec.FwdJitter = jitter.None{}
		}
		if spec.AckJitter == nil {
			spec.AckJitter = jitter.None{}
		}
		f := n.Flows[i]
		f.Spec = spec
		f.RTTTrace.Reset()
		f.RTTTrace.Name = spec.Name + "_rtt_s"
		f.RateTrace.Reset()
		f.RateTrace.Name = spec.Name + "_rate_bps"
		f.CwndTrace.Reset()
		f.CwndTrace.Name = spec.Name + "_cwnd_bytes"

		f.AckBox.Reset(spec.AckJitter)
		f.Receiver.Reset(spec.Ack)
		f.Receiver.Probe = cfg.Probe
		f.FwdBox.Reset(spec.FwdJitter)
		if f.gate != nil {
			f.gate.Reset(spec.LossProb)
			f.gate.Rng.Seed(rng.Derive(cfg.Seed, i, rng.Gate))
			f.gate.SetProbe(n.Sim, cfg.Probe)
		}
		if f.ge != nil {
			f.ge.Reset(*spec.GE, rng.Derive(cfg.Seed, i, rng.GE))
			f.ge.SetProbe(n.Sim, cfg.Probe)
		}
		f.Sender.Reset(spec.Alg, endpoint.DefaultMSS)
		f.Sender.Probe = cfg.Probe
		f.Sender.AckTraceHook = f.rttHook
		f.rateSamples = 0
		f.lastSampledAcked = 0
		f.hopTransit = 0
		f.checkedReceived = 0
		f.lastProgress = spec.StartAt
		f.stalled = false
	}
}

// forward routes a packet departing link j: into the next link of the
// flow's path (after the hop propagation delay), or — past the last link —
// into the flow's Rm/jitter stage. On the classic single-bottleneck path
// this reduces to afterLink with no extra events scheduled, so legacy
// realizations are unchanged.
func (n *Network) forward(j int, p packet.Packet) {
	next := n.nextHop[j][p.Flow]
	if next < 0 {
		n.Flows[p.Flow].afterLink(p)
		return
	}
	p.Hop++
	if d := n.linkSpecs[j].HopDelay; d > 0 {
		n.Flows[p.Flow].hopTransit++
		n.hops[j].Push(n.Sim.Now()+d, p)
		return
	}
	n.Links[next].Enqueue(p)
}

// afterLink routes a packet leaving the bottleneck through the flow's
// propagation delay and jitter box.
func (f *Flow) afterLink(p packet.Packet) {
	// Propagation then jitter; order is immaterial for delays, and doing
	// propagation inline avoids an extra element allocation per flow.
	f.FwdBox.SendAfter(p, f.Spec.Rm)
}

// Run executes the scenario for the given duration and returns results.
// The steady-state window for per-flow statistics is the second half of the
// run; use RunWindow to control it.
func (n *Network) Run(d time.Duration) *Result {
	return n.RunWindow(d, d/2, d)
}

// RunWindow executes the scenario for duration d, computing steady-state
// statistics over [from, to).
func (n *Network) RunWindow(d, from, to time.Duration) *Result {
	// The sampled series sizes are known exactly from the horizon and the
	// sampling interval: reserve them up front so the run itself never
	// regrows a trace buffer. (The RTT trace is ACK-paced and unknowable
	// here; it keeps amortized appends.)
	samples := int(d/sampleEvery) + 2
	if n.telemetry != nil {
		n.telemetry.begin(d, from)
	}
	n.QueueTrace.Reserve(samples)
	for j := range n.LinkQueues {
		n.LinkQueues[j].Reserve(samples)
	}
	for _, f := range n.Flows {
		f.RateTrace.Reserve(samples)
		f.CwndTrace.Reserve(samples)
	}
	for _, f := range n.Flows {
		fl := f
		n.Sim.At(fl.Spec.StartAt, fl.Sender.Start)
	}
	n.sample() // also schedules itself
	n.Sim.Run(d)
	return n.collect(d, from, to)
}

func (n *Network) sample() {
	now := n.Sim.Now()
	depth := n.Link.QueuedBytes()
	n.QueueTrace.Add(now, float64(depth))
	for j := range n.LinkQueues {
		n.LinkQueues[j].Add(now, float64(n.Links[j].QueuedBytes()))
	}
	for _, f := range n.Flows {
		acked := f.Sender.DeliveredBytes
		delta := acked - f.lastSampledAcked
		f.lastSampledAcked = acked
		rate := units.RateFromBytes(int(delta), sampleEvery)
		f.RateTrace.Add(now, float64(rate))
		f.CwndTrace.Add(now, float64(f.Sender.Algorithm().Window()))
		if n.cfg.Probe != nil {
			f.rateSamples++
			n.cfg.Probe.Emit(obs.Event{Type: obs.EvRateSample, At: now,
				Flow: f.ID, Seq: int64(rate), Queue: depth})
		}
	}
	if n.telemetry != nil {
		// Phase markers and self-telemetry piggyback on this tick — the
		// one callback every run already schedules — so the recorder adds
		// zero events to the realization.
		n.telemetry.tick(now, n.Sim.Pending())
	}
	if n.cfg.Guard != nil && now%guard.CheckEvery == 0 {
		n.checkProgress(now) // guard.CheckEvery is a multiple of sampleEvery
	}
	n.Sim.After(sampleEvery, n.sampleFn)
}

// checkProgress is the run guard's stall check at virtual time now. It
// reads the receivers' delivery counters, the ones Result.Ledger reads. A
// flow whose count moved since the previous check made progress at this
// check and re-arms its latch; a flow whose count has not moved for more
// than guard.StallAfter(Rm) since its last progress is flagged once.
func (n *Network) checkProgress(now time.Duration) {
	for _, f := range n.Flows {
		if got := f.Receiver.Received; got != f.checkedReceived {
			f.checkedReceived = got
			f.lastProgress = now
			f.stalled = false
			continue
		}
		after := guard.StallAfter(f.Spec.Rm)
		if f.stalled || now-f.lastProgress <= after {
			continue
		}
		f.stalled = true
		since := "it started"
		if f.checkedReceived > 0 {
			since = "the check"
		}
		n.report.Violations = append(n.report.Violations, guard.Violation{
			Kind: "stall", Flow: int(f.ID), At: now,
			Msg: fmt.Sprintf("no delivery since %s at %v (threshold %v)", since, f.lastProgress, after),
		})
	}
}
