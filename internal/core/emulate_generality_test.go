package core

import (
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/cca/ledbat"
	"starvation/internal/units"
)

// Theorem 1 quantifies over ALL deterministic, f-efficient,
// delay-convergent CCAs. These tests run the same construction against the
// other min-filter CCAs, showing nothing in the result is Vegas-specific.

// newLedbat5ms builds LEDBAT at a 5 ms target, X-T1-gen's setting.
func newLedbat5ms() cca.Algorithm {
	return ledbat.New(ledbat.Config{Target: 5 * time.Millisecond})
}

func TestTheorem1FASTStarvation(t *testing.T) {
	res := EmulateTwoFlow(EmulationSpec{
		CCA:             "fast",
		Rm:              50 * time.Millisecond,
		C1:              units.Mbps(12),
		C2:              units.Mbps(384),
		D:               20 * time.Millisecond,
		constantTargets: true,
		Measure:         MeasureOpts{Duration: 25 * time.Second},
	})
	t.Logf("\n%s", res)
	checkEmulationUtil(t, res, 10, 20*time.Millisecond, 0.75)
}

func TestTheorem1LEDBATStarvation(t *testing.T) {
	// LEDBAT holds a constant *time* target (5ms here), so its two
	// converged delay ranges coincide exactly: dmax(C1) ≈ dmax(C2) ≈
	// Rm + 5ms — the pigeonhole collision is trivial and even modest D
	// suffices.
	res := EmulateTwoFlow(EmulationSpec{
		CCA:             "ledbat",
		build:           newLedbat5ms,
		Rm:              50 * time.Millisecond,
		C1:              units.Mbps(12),
		C2:              units.Mbps(384),
		D:               20 * time.Millisecond,
		constantTargets: true,
		Measure:         MeasureOpts{Duration: 25 * time.Second},
	})
	t.Logf("\n%s", res)
	if !res.PreconditionsHold {
		t.Errorf("preconditions: δmax=%v ε=%v gap=%v", res.DeltaMax, res.Epsilon, res.DelayGap)
	}
	if res.Ratio < 10 {
		t.Errorf("ratio = %.1f, want >= 10", res.Ratio)
	}
	// LEDBAT's starved flow lands even below its own single-flow rate
	// (the proof's case 2: not even f-efficient under this adversary), so
	// total utilization is low; the ratio is the theorem's claim.
	if u := res.TwoFlow.Utilization(); u < 0.4 {
		t.Errorf("utilization = %.3f", u)
	}
}
