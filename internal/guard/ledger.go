package guard

import (
	"fmt"
	"strings"
)

// FlowLedger is the per-flow packet-conservation ledger: a snapshot of
// every place a transmitted packet can legally be at the end of a run. It
// is filled from element counters (see network.Result.Ledger), so the
// check works with no probe attached and independently cross-checks the
// event stream.
//
// Three equations must balance, one per pipeline segment:
//
//	Sent     = DroppedPreQueue + Enqueued + DroppedAtQueue
//	Enqueued = HeldInQueue + Dequeued + DroppedMidPath
//	Dequeued = HeldPostQueue + Delivered
//
// On a multi-link path the queue segment spans the whole chain: Enqueued
// is acceptance into the first bottleneck, Dequeued is departure from the
// last, HeldInQueue covers every intermediate queue and inter-hop
// propagation, and DroppedMidPath is drop-tail discards at any bottleneck
// after the first (zero on the classic single-bottleneck path).
//
// Any element that swallows or invents packets without reporting them
// breaks a segment equation and is caught by Check.
type FlowLedger struct {
	Name string

	Sent            int64 // sender transmissions (incl. retransmits)
	DroppedPreQueue int64 // discarded by loss gates before the bottleneck
	Enqueued        int64 // accepted into the first bottleneck FIFO
	DroppedAtQueue  int64 // drop-tail discards at the first bottleneck
	HeldInQueue     int64 // queued (any link) or between links at the horizon
	DroppedMidPath  int64 // drop-tail discards at bottlenecks after the first
	Dequeued        int64 // completed serialization at the last bottleneck
	HeldPostQueue   int64 // inside propagation/jitter boxes at the horizon
	Delivered       int64 // arrived at the receiver endpoint
}

// check reports the flow's first unbalanced segment, nil if all balance.
func (f *FlowLedger) check() error {
	type field struct {
		name string
		v    int64
	}
	for _, fd := range []field{
		{"Sent", f.Sent}, {"DroppedPreQueue", f.DroppedPreQueue},
		{"Enqueued", f.Enqueued}, {"DroppedAtQueue", f.DroppedAtQueue},
		{"HeldInQueue", f.HeldInQueue}, {"DroppedMidPath", f.DroppedMidPath},
		{"Dequeued", f.Dequeued},
		{"HeldPostQueue", f.HeldPostQueue}, {"Delivered", f.Delivered},
	} {
		if fd.v < 0 {
			return fmt.Errorf("flow %s: negative ledger entry %s = %d", f.Name, fd.name, fd.v)
		}
	}
	if out := f.DroppedPreQueue + f.Enqueued + f.DroppedAtQueue; f.Sent != out {
		return fmt.Errorf("flow %s: pre-queue imbalance: sent %d, but gates+queue account for %d (dropped %d, enqueued %d, tail-dropped %d)",
			f.Name, f.Sent, out, f.DroppedPreQueue, f.Enqueued, f.DroppedAtQueue)
	}
	if out := f.HeldInQueue + f.Dequeued + f.DroppedMidPath; f.Enqueued != out {
		return fmt.Errorf("flow %s: queue imbalance: enqueued %d but held %d + dequeued %d + mid-path drops %d = %d",
			f.Name, f.Enqueued, f.HeldInQueue, f.Dequeued, f.DroppedMidPath, out)
	}
	if out := f.HeldPostQueue + f.Delivered; f.Dequeued != out {
		return fmt.Errorf("flow %s: post-queue imbalance: dequeued %d but in-transit %d + delivered %d = %d",
			f.Name, f.Dequeued, f.HeldPostQueue, f.Delivered, out)
	}
	return nil
}

// Ledger is the whole run's conservation state: one FlowLedger per flow.
type Ledger struct {
	Flows []FlowLedger
}

// Check verifies every flow's segment equations plus the global sums (the
// global check is redundant when per-flow checks pass, but catches
// cross-flow misattribution if a ledger is assembled from a probe stream).
// All failures are joined into one error; nil means the ledger balances.
func (l *Ledger) Check() error {
	var errs []string
	var g FlowLedger
	g.Name = "global"
	for i := range l.Flows {
		f := &l.Flows[i]
		if err := f.check(); err != nil {
			errs = append(errs, err.Error())
		}
		g.Sent += f.Sent
		g.DroppedPreQueue += f.DroppedPreQueue
		g.Enqueued += f.Enqueued
		g.DroppedAtQueue += f.DroppedAtQueue
		g.HeldInQueue += f.HeldInQueue
		g.DroppedMidPath += f.DroppedMidPath
		g.Dequeued += f.Dequeued
		g.HeldPostQueue += f.HeldPostQueue
		g.Delivered += f.Delivered
	}
	if err := g.check(); err != nil {
		errs = append(errs, err.Error())
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("guard: conservation violated:\n  %s", strings.Join(errs, "\n  "))
}
