// Package faults provides composable path-impairment elements beyond the
// Bernoulli LossGate of §5.4: a Gilbert–Elliott two-state bursty-loss
// gate, a bounded reordering box, a packet duplicator, and time-varying
// bottleneck capacity (piecewise rate schedules and on-off link flaps
// driving netem.Link.SetRate).
//
// The vocabulary follows the robustness literature the emulator is
// evaluated against: "Contracts" (Agarwal, Arun, Seshan) argues CCA
// guarantees must be stated against explicit classes of path misbehaviour,
// and BBR's published pathologies only surface under bursty loss and
// time-varying capacity — impairments Bernoulli loss and bounded jitter
// cannot express.
//
// Every element follows the conventions of package netem: it delivers to a
// downstream PacketHandler, draws all randomness from an injected
// *rand.Rand (derived from the run seed, so adding an element to one flow
// never perturbs another flow's realization), emits obs probe events when
// a probe is installed, and exposes plain int64 counters so conservation
// ledgers can account for every packet without a probe attached.
package faults

import "fmt"

// Spec selects the per-flow impairment elements of a scenario. All fields
// are optional; a nil pointer leaves that element out of the pipeline. The
// elements sit between the sender and the bottleneck in the order
// duplicator → reorderer → Gilbert–Elliott gate (→ Bernoulli gate → link),
// so a duplicated copy is itself subject to reordering and loss.
type Spec struct {
	// GE inserts a Gilbert–Elliott bursty-loss gate.
	GE *GEConfig
	// Reorder inserts a bounded reordering box.
	Reorder *ReorderConfig
	// Duplicate inserts a packet duplicator.
	Duplicate *DupConfig
}

// Validate reports the first problem with the spec.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.GE != nil {
		if err := s.GE.validate(); err != nil {
			return fmt.Errorf("ge: %w", err)
		}
	}
	if s.Reorder != nil {
		if err := s.Reorder.validate(); err != nil {
			return fmt.Errorf("reorder: %w", err)
		}
	}
	if s.Duplicate != nil {
		if err := s.Duplicate.validate(); err != nil {
			return fmt.Errorf("dup: %w", err)
		}
	}
	return nil
}

// Empty reports whether the spec selects no elements at all.
func (s *Spec) Empty() bool {
	return s == nil || (s.GE == nil && s.Reorder == nil && s.Duplicate == nil)
}

func probability(name string, p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("%s must be in [0, 1] (got %g)", name, p)
	}
	return nil
}
