// Package faults provides the Gilbert–Elliott two-state bursty-loss gate,
// the one impairment beyond the Bernoulli LossGate of §5.4 that a flow's
// pipeline carries. Non-congestive loss is part of the paper's model
// (§5.4, App. C), and bursty loss is the class where loss-resilience
// claims break down in practice; "Contracts" (Agarwal, Arun, Seshan)
// argues CCA guarantees must be stated against explicit classes of path
// behaviour, so the emulator offers exactly the classes the model has.
//
// The gate follows the conventions of package netem: it delivers to a
// downstream PacketHandler, draws all randomness from an injected
// *rand.Rand (derived from the run seed, so adding a gate to one flow
// never perturbs another flow's realization), emits obs probe events when
// a probe is installed, and exposes plain int64 counters so conservation
// ledgers can account for every packet without a probe attached.
//
// The reorderer and the duplicator are standalone elements outside every
// flow pipeline; only their per-packet cost is still measured.
package faults

import "fmt"

func probability(name string, p float64) error {
	if !(p >= 0 && p <= 1) { // NaN fails too
		return fmt.Errorf("%s must be in [0, 1] (got %g)", name, p)
	}
	return nil
}
