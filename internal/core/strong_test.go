package core

import (
	"testing"
	"time"

	"starvation/internal/units"
)

func TestTheorem3StrongModelVegas(t *testing.T) {
	// Appendix B applied to Vegas: lowering the delay trajectory by D per
	// step must produce a consecutive pair of traces whose throughputs
	// differ by ≥ s — the witness that the strong-model adversary can
	// starve two such flows on one queue.
	res := StrongModelConstruction(StrongModelSpec{
		CCA:     "vegas",
		Rm:      50 * time.Millisecond,
		Lambda:  units.Mbps(4),
		D:       5 * time.Millisecond,
		S:       2,
		Measure: MeasureOpts{Duration: 20 * time.Second},
	})
	t.Logf("\n%s", res)
	if !res.FoundPair {
		t.Fatal("no consecutive pair with ratio >= s; Theorem 3 guarantees one")
	}
	if res.Ratio < 2 {
		t.Errorf("ratio %.2f < s", res.Ratio)
	}
	// Sanity: throughput rises as the imposed delay drops (Vegas infers
	// more headroom from lower delay).
	first := res.Steps[0].Throughput
	last := res.Steps[len(res.Steps)-1].Throughput
	if last <= first {
		t.Errorf("throughput did not rise along the sequence: %v -> %v", first, last)
	}
}

func TestTheorem3DelayFloorReached(t *testing.T) {
	// With a large per-step D, the sequence flattens to the propagation
	// floor within a couple of steps.
	res := StrongModelConstruction(StrongModelSpec{
		CCA:      "vegas",
		Rm:       50 * time.Millisecond,
		Lambda:   units.Mbps(4),
		D:        50 * time.Millisecond,
		S:        1000, // unreachable: force full iteration
		Measure:  MeasureOpts{Duration: 15 * time.Second},
		maxSteps: 4,
	})
	t.Logf("\n%s", res)
	if len(res.Steps) < 2 {
		t.Fatal("sequence did not iterate")
	}
	lastStep := res.Steps[len(res.Steps)-1]
	if lastStep.MaxDelay > 60*time.Millisecond {
		t.Errorf("final max delay %v, want near the 50ms floor", lastStep.MaxDelay)
	}
}
