package network

import (
	"fmt"
	"strings"
	"time"

	"starvation/internal/guard"
	"starvation/internal/metrics"
	"starvation/internal/obs"
	"starvation/internal/trace"
	"starvation/internal/units"
)

// FaultCounters is the per-flow loss-gate accounting, filled from element
// counters so it is visible without a probe attached.
type FaultCounters struct {
	// GatePassed/GateDropped are the Bernoulli loss gate's counters.
	GatePassed  int64
	GateDropped int64
	// GEPassed/GEDropped/GEBursts are the Gilbert–Elliott gate's counters
	// (GEBursts counts Good→Bad transitions, i.e. loss bursts started).
	GEPassed  int64
	GEDropped int64
	GEBursts  int64
}

// FlowResult is the per-flow outcome of a run.
type FlowResult struct {
	Name string
	// Cohort is the flow's population label (empty when uncohorted).
	Cohort string
	Stat   metrics.FlowStat
	Faults FaultCounters
	RTT    *trace.Series
	Rate   *trace.Series
	Cwnd   *trace.Series
}

// LinkResult is the per-link outcome of a run: the resolved spec identity
// plus the link's own counters and (for multi-link topologies) its queue
// trace.
type LinkResult struct {
	Name      string
	Rate      units.Rate
	Dropped   int64
	Delivered int64
	MaxQueue  int
	// Queue is the link's sampled depth trace; nil on the classic
	// single-bottleneck path, where Result.QueueTrace already carries it.
	Queue *trace.Series
}

// Result is the outcome of a scenario run.
type Result struct {
	Duration   time.Duration
	WindowFrom time.Duration
	WindowTo   time.Duration
	Flows      []FlowResult
	// Links describes every bottleneck of the topology in index order (a
	// single-element slice on the classic path).
	Links      []LinkResult
	QueueTrace *trace.Series
	// LinkRate, Dropped, Delivered, and MaxQueue report the configured
	// bottleneck link (Config.Bottleneck) — except Dropped, which sums
	// drop-tail discards across every link of the topology.
	LinkRate  units.Rate
	Dropped   int64
	Delivered int64
	MaxQueue  int
	// Obs is the end-of-run registry snapshot: per-flow and global
	// packet-lifecycle counters plus event-loop gauges, assembled from
	// element counters on every run. CwndUpdates and RateSamples count
	// emitted events, so they stay 0 unless Config.Probe or
	// Config.Telemetry is set.
	Obs obs.Snapshot
	// Ledger is the packet-conservation ledger assembled from element
	// counters on every run. Ledger.Check() == nil means every transmitted
	// packet is accounted for (delivered, dropped, or in flight).
	Ledger guard.Ledger
	// Guard is the run-guard report, non-nil only when Config.Guard was
	// set: stall violations and the end-of-run conservation check.
	Guard *guard.Report
	// Epsilon is the starvation threshold String() passes to Population()
	// when rendering large runs (<= 0 selects the metrics default). Set
	// by core.RunPopulation so a -eps override survives into the report.
	Epsilon float64
	// Telemetry is the flight recorder's output — windowed per-flow
	// series, starvation episodes, run phases, self-telemetry — non-nil
	// only when Config.Telemetry was set.
	Telemetry *TelemetryResult
}

func (n *Network) collect(d, from, to time.Duration) *Result {
	res := &Result{
		Duration:   d,
		WindowFrom: from,
		WindowTo:   to,
		Flows:      make([]FlowResult, 0, len(n.Flows)),
		QueueTrace: &n.QueueTrace,
		LinkRate:   n.linkSpecs[n.cfg.Bottleneck].Rate,
		Delivered:  n.Link.Delivered,
		MaxQueue:   n.Link.MaxQueue,
	}
	for j, link := range n.Links {
		lr := LinkResult{
			Name:      n.linkSpecs[j].Name,
			Rate:      n.linkSpecs[j].Rate,
			Dropped:   link.Dropped,
			Delivered: link.Delivered,
			MaxQueue:  link.MaxQueue,
		}
		if n.LinkQueues != nil {
			lr.Queue = &n.LinkQueues[j]
		}
		res.Links = append(res.Links, lr)
		res.Dropped += link.Dropped
	}
	for _, f := range n.Flows {
		st := metrics.FlowStat{
			Name:       f.Spec.Name,
			AckedBytes: f.Sender.AckedBytes,
			SentBytes:  f.Sender.SentBytes,
			RetxBytes:  f.Sender.RetxBytes,
			LossEvents: f.Sender.LossEvents,
			Timeouts:   f.Sender.Timeouts,
			Throughput: f.Sender.Throughput(d),
		}
		if lo, hi, ok := f.RTTTrace.MinMax(0, d); ok {
			st.MinRTT = secToDur(lo)
			st.MaxRTT = secToDur(hi)
		}
		if m, ok := f.RTTTrace.Mean(0, d); ok {
			st.MeanRTT = secToDur(m)
		}
		if lo, hi, ok := f.RTTTrace.MinMax(from, to); ok {
			st.SteadyRTTLo = secToDur(lo)
			st.SteadyRTTHi = secToDur(hi)
		}
		st.SteadyThpt = windowThroughput(&f.RateTrace, from, to)
		fr := FlowResult{
			Name:   f.Spec.Name,
			Cohort: f.Spec.Cohort,
			Stat:   st,
			RTT:    &f.RTTTrace,
			Rate:   &f.RateTrace,
			Cwnd:   &f.CwndTrace,
		}
		if f.gate != nil {
			fr.Faults.GatePassed = f.gate.Passed
			fr.Faults.GateDropped = f.gate.Dropped
		}
		if f.ge != nil {
			fr.Faults.GEPassed = f.ge.Passed
			fr.Faults.GEDropped = f.ge.Dropped
			fr.Faults.GEBursts = f.ge.BadEntries
		}
		res.Flows = append(res.Flows, fr)
	}
	res.Obs = n.snapshot()
	res.Ledger = n.ledger()
	if n.telemetry != nil {
		res.Telemetry = n.telemetry.finish(d, n.Flows)
	}
	if n.cfg.Guard != nil {
		// Fold the end-of-run checks into the report: a final stall
		// check and the conservation ledger.
		now := n.Sim.Now()
		n.checkProgress(now)
		if err := res.Ledger.Check(); err != nil {
			n.report.Violations = append(n.report.Violations, guard.Violation{
				Kind: "conservation", Flow: -1, At: now, Msg: err.Error(),
			})
		}
		rep := n.report
		res.Guard = &rep
	}
	return res
}

// ledger assembles the packet-conservation ledger from element counters.
// Every place a packet can legally rest at the horizon has a gauge: the
// bottleneck FIFOs and inter-link hops (HeldInQueue) and the
// propagation/jitter boxes (HeldPostQueue).
func (n *Network) ledger() guard.Ledger {
	var lg guard.Ledger
	for _, f := range n.Flows {
		first := n.Links[f.path[0]].FlowStats(f.ID)
		last := n.Links[f.path[len(f.path)-1]].FlowStats(f.ID)
		fl := guard.FlowLedger{
			Name:           f.Spec.Name,
			Sent:           f.Sender.SentPackets,
			Enqueued:       first.Enqueued,
			DroppedAtQueue: first.Dropped,
			HeldInQueue:    f.hopTransit,
			Dequeued:       last.Delivered,
			HeldPostQueue:  f.FwdBox.InTransit(),
			Delivered:      f.Receiver.Received,
		}
		for pos, j := range f.path {
			ls := n.Links[j].FlowStats(f.ID)
			fl.HeldInQueue += ls.Holding
			if pos > 0 {
				fl.DroppedMidPath += ls.Dropped
			}
		}
		if f.gate != nil {
			fl.DroppedPreQueue += f.gate.Dropped
		}
		if f.ge != nil {
			fl.DroppedPreQueue += f.ge.Dropped
		}
		lg.Flows = append(lg.Flows, fl)
	}
	return lg
}

// snapshot assembles the observability registry from element counters. It
// produces exactly the numbers an event-fed obs.Registry would: the
// round-trip tests reconcile the two, so keep the derivations in sync with
// the event emission points.
func (n *Network) snapshot() obs.Snapshot {
	var snap obs.Snapshot
	for _, f := range n.Flows {
		fc := snap.Flow(f.ID)
		*fc = obs.FlowCounters{
			Name:             f.Spec.Name,
			Cohort:           f.Spec.Cohort,
			PacketsSent:      f.Sender.SentPackets,
			PacketsDelivered: f.Receiver.Received,
			Retransmits:      f.Sender.RetxPackets,
			AcksReceived:     f.Sender.AcksReceived,
			BytesSent:        f.Sender.SentBytes,
			BytesAcked:       f.Sender.AckedBytes,
			BytesDelivered:   f.Receiver.DeliveredBytes(),
			CwndUpdates:      f.Sender.CwndUpdates,
			RateSamples:      f.rateSamples,
		}
		// Queue-level counters sum over every link of the flow's path
		// (exactly what an event-fed registry accumulates: one enqueue/
		// dequeue event per hop).
		for _, j := range f.path {
			ls := n.Links[j].FlowStats(f.ID)
			fc.PacketsEnqueued += ls.Enqueued
			fc.PacketsDropped += ls.Dropped
			fc.PacketsMarked += ls.Marked
			fc.BytesEnqueued += ls.EnqueuedBytes
			fc.PacketsDequeued += ls.Delivered
		}
		if f.gate != nil {
			fc.PacketsDropped += f.gate.Dropped
			fc.DroppedAtGate += f.gate.Dropped
		}
		if f.ge != nil {
			fc.PacketsDropped += f.ge.Dropped
			fc.DroppedAtGate += f.ge.Dropped
		}
		g := &snap.Global
		g.PacketsDropped += fc.PacketsDropped
		g.PacketsDelivered += fc.PacketsDelivered
		g.AcksReceived += fc.AcksReceived
	}
	g := &snap.Global
	for _, link := range n.Links {
		g.PacketsEnqueued += link.EnqueuedPkts
		g.PacketsDequeued += link.Delivered
		g.PacketsMarked += link.Marked
		g.BytesEnqueued += link.EnqueuedBytes
		if q := int64(link.MaxQueue); q > g.MaxQueueBytes {
			g.MaxQueueBytes = q
		}
	}
	st := n.Sim.Stats()
	g.SimEventsScheduled = st.Scheduled
	g.SimEventsFired = st.Fired
	return snap
}

func windowThroughput(rate *trace.Series, from, to time.Duration) units.Rate {
	if m, ok := rate.Mean(from, to); ok {
		return units.Rate(m)
	}
	return 0
}

func secToDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Throughputs returns the steady-state throughputs of all flows in bit/s.
func (r *Result) Throughputs() []float64 {
	out := make([]float64, len(r.Flows))
	for i, f := range r.Flows {
		out[i] = float64(f.Stat.SteadyThpt)
	}
	return out
}

// cohorts returns the per-flow cohort labels, indexed like Flows.
func (r *Result) cohorts() []string {
	out := make([]string, len(r.Flows))
	for i, f := range r.Flows {
		out[i] = f.Cohort
	}
	return out
}

// Population computes the population starvation statistics of the run:
// starvation fraction under the ε-threshold (eps <= 0 selects
// metrics.DefaultStarvationEpsilon), the normalized throughput-ratio
// distribution, and the per-cohort breakdown.
func (r *Result) Population(eps float64) metrics.PopulationStats {
	return metrics.Population(r.Throughputs(), r.cohorts(), float64(r.LinkRate), eps)
}

// Ratio returns the steady-state throughput ratio (fast over slow flow).
func (r *Result) Ratio() float64 { return metrics.Ratio(r.Throughputs()) }

// Jain returns Jain's fairness index over steady-state throughputs.
func (r *Result) Jain() float64 { return metrics.JainIndex(r.Throughputs()) }

// Utilization returns delivered fraction of capacity over the steady
// window.
func (r *Result) Utilization() float64 {
	var sum float64
	for _, x := range r.Throughputs() {
		sum += x
	}
	if r.LinkRate <= 0 {
		return 0
	}
	return sum / float64(r.LinkRate)
}

// CompactFlowThreshold is the flow count above which String switches from
// per-flow rows to the population/cohort summary: a 1000-flow run reports
// a handful of cohort rows and the starvation distribution instead of a
// thousand-line table.
const CompactFlowThreshold = 12

// String renders a compact result table: per-flow rows for small runs,
// the population summary for large ones.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "link %v  run %v  window [%v, %v)  drops %d  maxqueue %dB\n",
		r.LinkRate, r.Duration, r.WindowFrom, r.WindowTo, r.Dropped, r.MaxQueue)
	if len(r.Links) > 1 {
		fmt.Fprintf(&b, "%-12s %14s %10s %12s %10s\n",
			"link", "rate", "drops", "delivered", "maxqueue")
		for _, l := range r.Links {
			fmt.Fprintf(&b, "%-12s %14s %10d %12d %9dB\n",
				l.Name, l.Rate, l.Dropped, l.Delivered, l.MaxQueue)
		}
	}
	if len(r.Flows) > CompactFlowThreshold {
		b.WriteString(r.Population(r.Epsilon).String())
		fmt.Fprintf(&b, "ratio %.2f  jain %.3f  utilization %.3f\n", r.Ratio(), r.Jain(), r.Utilization())
		if r.Telemetry != nil {
			b.WriteString(r.Telemetry.String())
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s %14s %14s %10s %10s %10s %8s\n",
		"flow", "thpt(steady)", "thpt(def2)", "rtt_min", "rtt_max", "rtt_mean", "losses")
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "%-12s %14s %14s %10s %10s %10s %8d\n",
			f.Name, f.Stat.SteadyThpt, f.Stat.Throughput,
			f.Stat.MinRTT.Round(time.Microsecond),
			f.Stat.MaxRTT.Round(time.Microsecond),
			f.Stat.MeanRTT.Round(time.Microsecond),
			f.Stat.LossEvents)
	}
	fmt.Fprintf(&b, "ratio %.2f  jain %.3f  utilization %.3f\n", r.Ratio(), r.Jain(), r.Utilization())
	if r.Telemetry != nil {
		b.WriteString(r.Telemetry.String())
	}
	return b.String()
}
