package core

import (
	"strings"
	"testing"
	"time"

	"starvation/internal/units"
)

// checkEmulation asserts the Theorem 1 invariants: the preconditions hold,
// the achieved ratio demonstrates starvation, the link stays efficient
// (both flows at their single-flow rates), and the adversary's clamping
// error stays far below the delay bound D (clamp *frequency* may be high:
// packet-granular ack-clock beats cause ~ms-scale standing waves the fluid
// proof does not model).
func checkEmulation(t *testing.T, res *EmulationResult, wantRatio float64, d time.Duration) {
	t.Helper()
	checkEmulationUtil(t, res, wantRatio, d, 0.9)
}

// checkEmulationUtil is checkEmulation with an explicit utilization floor:
// the theorem's conclusion is the ratio, and how much of the link the fast
// flow holds under emulation clamping varies by CCA (LEDBAT's clamped flow
// under-shoots harder than Vegas's).
func checkEmulationUtil(t *testing.T, res *EmulationResult, wantRatio float64, d time.Duration, minUtil float64) {
	t.Helper()
	if !res.PreconditionsHold {
		t.Errorf("Theorem 1 preconditions do not hold: δmax=%v ε=%v gap=%v",
			res.DeltaMax, res.Epsilon, res.DelayGap)
	}
	if res.Ratio < wantRatio {
		t.Errorf("throughput ratio = %.1f, want >= %.1f (starvation)", res.Ratio, wantRatio)
	}
	if u := res.TwoFlow.Utilization(); u < minUtil {
		t.Errorf("utilization = %.3f, want >= %.2f", u, minUtil)
	}
	maxErr := d / 4
	for i, sh := range []*RTTShaper{res.Shaper1, res.Shaper2} {
		if sh.MaxNegative > maxErr {
			t.Errorf("flow%d max negative clamp %v, want <= %v", i+1, sh.MaxNegative, maxErr)
		}
		if sh.MaxShortfall > maxErr {
			t.Errorf("flow%d max shortfall %v, want <= %v", i+1, sh.MaxShortfall, maxErr)
		}
	}
}

func TestTheorem1VegasStarvation(t *testing.T) {
	// Vegas's dmax(C) = Rm + α/C is decreasing, so the pigeonhole collision
	// (step 1) lands at high rates where α/C1 and α/C2 are both within
	// D/2 of each other: 12 and 384 Mbit/s give 5 ms vs 0.16 ms of queueing.
	res := EmulateTwoFlow(EmulationSpec{
		CCA:     "vegas",
		Rm:      50 * time.Millisecond,
		C1:      units.Mbps(12),
		C2:      units.Mbps(384), // factor 32 apart: s=25.6 at f=0.8
		D:       20 * time.Millisecond,
		Measure: MeasureOpts{Duration: 30 * time.Second},
	})
	t.Logf("\n%s", res)
	checkEmulation(t, res, 10, 20*time.Millisecond)
}

func TestTheorem1VegasConstantTargets(t *testing.T) {
	res := EmulateTwoFlow(EmulationSpec{
		CCA:             "vegas",
		Rm:              50 * time.Millisecond,
		C1:              units.Mbps(12),
		C2:              units.Mbps(384),
		D:               20 * time.Millisecond,
		constantTargets: true,
		Measure:         MeasureOpts{Duration: 30 * time.Second},
	})
	t.Logf("\n%s", res)
	checkEmulation(t, res, 15, 20*time.Millisecond)
	// With constant targets the starved flow is pinned exactly: its
	// steady throughput must match its single-flow throughput on C1.
	slow := res.TwoFlow.Flows[0].Stat.SteadyThpt
	if ratio := float64(slow) / float64(res.Conv1.Throughput); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("starved flow at %v vs single-flow %v (ratio %.2f), want within 10%%",
			slow, res.Conv1.Throughput, ratio)
	}
}

// TestEmulateTwoFlowNeedsRestart checks that a registered CCA without a
// Restart method is refused before any run: step 3 could not resume it
// from its converged state.
func TestEmulateTwoFlowNeedsRestart(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"reno"`) || !strings.Contains(msg, "Restart") {
			t.Fatalf("panic %q, want one naming \"reno\" and Restart", msg)
		}
	}()
	EmulateTwoFlow(EmulationSpec{CCA: "reno", Rm: 50 * time.Millisecond, C1: units.Mbps(12), C2: units.Mbps(384),
		D: 20 * time.Millisecond, Measure: MeasureOpts{Duration: time.Second}})
}

func TestTheorem2Underutilization(t *testing.T) {
	res := UnderutilizationConstruction(UnderutilizationSpec{
		CCA:     "vegas",
		Rm:      50 * time.Millisecond,
		C:       units.Mbps(12),
		Measure: MeasureOpts{Duration: 20 * time.Second},
	})
	t.Logf("emulated C=%v on C'=%v: utilization %.4f (D=%v)",
		res.Conv.C, res.BigLink, res.Utilization, res.D)
	// The CCA should send at ≈ C although the link is 50× bigger.
	if res.Utilization > 0.05 {
		t.Errorf("utilization = %.4f, want <= 0.05 (arbitrary underutilization)", res.Utilization)
	}
	if res.Utilization < 0.005 {
		t.Errorf("utilization = %.4f, suspiciously low: flow should still run at ~C/C' = 0.02", res.Utilization)
	}
}
