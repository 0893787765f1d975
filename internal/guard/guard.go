// Package guard is the run-guard layer: it makes every emulator run
// self-checking. It defines the packet-conservation ledger (every sent
// packet must be delivered, dropped, or accounted in-flight — per flow and
// globally), which internal/network fills from element counters, and the
// stall threshold past which a flow that stopped delivering is flagged
// instead of silently producing garbage. It also converts panics into
// structured RunError values so a batch driver (internal/runner) can
// record a failing run and keep going.
//
// A wall-clock budget is not the guard's business: it is a context
// deadline (network.Config.Ctx, runner.Pool.JobDeadline), which the
// simulator polls on event count, so even a livelocked run halts.
//
// The layer is strictly read-only with respect to the simulation: the
// stall check in internal/network reads the receivers' delivery counters
// on the trace sampler's existing tick, so it draws no randomness,
// schedules no events and emits nothing, and a fixed-seed run produces a
// bit-identical Result with guards on or off (plus the report).
package guard

import (
	"fmt"
	"time"
)

// Options enables the run-guard layer for one run; it has no settings.
type Options struct{}

// stallK flags a flow as stalled when it has delivered nothing to its
// receiver for stallK × its Rm of virtual time. With Rm = 40 ms that is
// 40 s without a single delivery, far beyond any legitimate RTO backoff,
// yet a starved-but-alive flow (the paper's subject) still trickles often
// enough to stay clear.
const stallK = 1000

// CheckEvery is the virtual-time cadence of the stall check.
const CheckEvery = time.Second

// StallAfter returns the no-delivery duration after which a flow with the
// given Rm counts as stalled.
func StallAfter(rm time.Duration) time.Duration { return stallK * rm }

// Violation is one invariant breach observed during or after a run.
// Violations are diagnostics, not control flow: the run completes and the
// report carries them.
type Violation struct {
	// Kind is "stall" (a flow made no delivery progress) or
	// "conservation" (the packet ledger does not balance).
	Kind string
	// Flow is the offending flow, -1 for global violations.
	Flow int
	// At is the virtual time of detection.
	At time.Duration
	// Msg describes the breach.
	Msg string
}

func (v Violation) String() string {
	if v.Flow >= 0 {
		return fmt.Sprintf("[%s] flow %d at %v: %s", v.Kind, v.Flow, v.At, v.Msg)
	}
	return fmt.Sprintf("[%s] at %v: %s", v.Kind, v.At, v.Msg)
}

// Report is the guard outcome of one run.
type Report struct {
	// Violations lists invariant breaches in detection order.
	Violations []Violation
}

// Ok reports whether the run passed every check.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// String renders the report for CLI output.
func (r *Report) String() string {
	if r.Ok() {
		return "guard: ok"
	}
	s := fmt.Sprintf("guard: %d violation(s)", len(r.Violations))
	for _, v := range r.Violations {
		s += "\n  " + v.String()
	}
	return s
}
