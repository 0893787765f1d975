package core

import (
	"testing"
	"time"

	"starvation/internal/cca/fast"
	"starvation/internal/units"
)

// These tests run the Figure 3 measurements. Rates are kept moderate so
// the tests stay fast; cmd/figures runs the full 0.1–100 Mbit/s sweep.

const fig3Rm = 100 * time.Millisecond

func fig3Opts() MeasureOpts {
	return MeasureOpts{Duration: 30 * time.Second}
}

// slack is a tolerance of pkts packet times at the link rate plus d.
type slack struct {
	pkts float64
	d    time.Duration
}

func (s slack) at(c units.Rate) time.Duration { return queueDelay(c, s.pkts) + s.d }

// fig3Cases says, per CCA, how closely its measured band must follow its
// contract's [lo, hi]: the measured low end may sit below lo by at most
// below and the high end above hi by at most above. The low end is DMin,
// or the steady mean RTT with steadyLo; likewise the high end is DMax, or
// the steady mean with steadyHi.
var fig3Cases = []struct {
	name               string
	rates              []units.Rate
	below, above       slack
	steadyLo, steadyHi bool
	minEff             float64
	// maxDelta bounds δ(C) when set.
	maxDelta slack
	// excursion bounds DMax − Rm when set.
	excursion time.Duration
}{
	// Vegas: a packet of slack for measurement granularity, and its
	// hallmark: δ(C) shrinks toward zero (a few packet times at most).
	{name: "vegas", rates: []units.Rate{units.Mbps(6), units.Mbps(48)},
		below: slack{pkts: 0.5}, above: slack{pkts: 1.5}, minEff: 0.95, maxDelta: slack{pkts: 3}},
	// FAST: essentially flat at α packets, dmin no lower than Rm.
	{name: "fast", rates: []units.Rate{units.Mbps(24)},
		below: slack{pkts: fast.DefaultAlpha}, above: slack{pkts: 3}, minEff: 0.95},
	// Copa: just above Rm, no more than 10 packets queued.
	{name: "copa", rates: []units.Rate{units.Mbps(24)},
		above: slack{pkts: 4}, minEff: 0.9},
	// Pacing-limited BBR on a clean path, full utilization.
	{name: "bbr", rates: []units.Rate{units.Mbps(24)},
		below: slack{d: time.Millisecond}, above: slack{d: 10 * time.Millisecond}, minEff: 0.9},
	// Vivace: the latency-gradient penalty drains any standing queue, so
	// the typical RTT is pinned at Rm. Confidence-amplified steps
	// overshoot capacity for a probe pair every few seconds before the
	// utility slams them back, so the steady mean is held to the band and
	// the brief excursions of the maximum are bounded separately.
	{name: "vivace", rates: []units.Rate{units.Mbps(24)},
		below: slack{d: time.Millisecond}, above: slack{d: 2 * time.Millisecond}, steadyHi: true,
		minEff: 0.8, excursion: 60 * time.Millisecond},
	// LEDBAT: the band is a couple of tens of ms wide — still
	// delay-convergent and (per Thm 1 with D > 2δmax) still starvable.
	{name: "ledbat", rates: []units.Rate{units.Mbps(24)},
		steadyLo: true, steadyHi: true, minEff: 0.9, maxDelta: slack{d: 35 * time.Millisecond}},
	// Verus: bounded dmax, nonzero but bounded δ.
	{name: "verus", rates: []units.Rate{units.Mbps(24)}, minEff: 0.7},
}

// TestFig3Contracts verifies the Figure 3 rate-delay equilibria: each
// CCA's measured [dmin(C), dmax(C)] on ideal paths must match the band its
// contract predicts, within the case's slack.
func TestFig3Contracts(t *testing.T) {
	for _, tc := range fig3Cases {
		t.Run(tc.name, func(t *testing.T) {
			band := contracts[tc.name].band
			if band == nil {
				t.Fatalf("no predicted band for %s", tc.name)
			}
			for _, c := range tc.rates {
				conv := MeasureConvergence(tc.name, c, fig3Rm, fig3Opts())
				lo, hi := band(c, fig3Rm)
				low, high := conv.DMin, conv.DMax
				if tc.steadyLo {
					low = conv.SteadyMeanRTT
				}
				if tc.steadyHi {
					high = conv.SteadyMeanRTT
				}
				if low < lo-tc.below.at(c) || high > hi+tc.above.at(c) {
					t.Errorf("C=%v: measured [%v, %v] (steady mean %v), want within [%v, %v] less %v, plus %v",
						c, conv.DMin, conv.DMax, conv.SteadyMeanRTT, lo, hi, tc.below.at(c), tc.above.at(c))
				}
				if eff := conv.efficiency(); eff < tc.minEff {
					t.Errorf("C=%v: efficiency %.3f, want >= %v", c, eff, tc.minEff)
				}
				if bound := tc.maxDelta.at(c); bound > 0 && conv.Delta > bound {
					t.Errorf("C=%v: δ = %v, want <= %v", c, conv.Delta, bound)
				}
				if tc.excursion > 0 && conv.DMax > fig3Rm+tc.excursion {
					t.Errorf("C=%v: probe excursions unbounded: dmax %v above Rm + %v", c, conv.DMax, tc.excursion)
				}
			}
		})
	}
}

func TestDeltaShrinksWithRateVegas(t *testing.T) {
	// The Fig. 2/3 shape: for the Vegas family both dmax(C) and δ(C)
	// decrease in C.
	sweep := RateDelaySweep("vegas", fig3Rm, []units.Rate{units.Mbps(2), units.Mbps(8), units.Mbps(32)}, fig3Opts())
	for i := 1; i < len(sweep.Points); i++ {
		if sweep.Points[i].DMax > sweep.Points[i-1].DMax {
			t.Errorf("dmax not decreasing: %v then %v",
				sweep.Points[i-1].DMax, sweep.Points[i].DMax)
		}
	}
	if dm := sweep.DeltaMax(units.Mbps(1)); dm > 8*time.Millisecond {
		t.Errorf("δmax = %v, want small", dm)
	}
}

func TestPigeonholeFindsCollidingPair(t *testing.T) {
	res := PigeonholeSearch("vegas", 50*time.Millisecond, 4, 0.8, 5*time.Millisecond,
		units.Mbps(4), 6, MeasureOpts{Duration: 20 * time.Second})
	t.Logf("%s", res)
	if !res.Found {
		t.Fatal("no colliding pair found for Vegas (guaranteed by Thm 1 step 1)")
	}
	if ratio := float64(res.C2) / float64(res.C1); ratio < 4/0.8 {
		t.Errorf("C2/C1 = %.1f, want >= s/f = 5", ratio)
	}
	gap := res.Conv1.DMax - res.Conv2.DMax
	if gap < 0 {
		gap = -gap
	}
	if gap >= res.Epsilon {
		t.Errorf("delay gap %v not within ε=%v", gap, res.Epsilon)
	}
}
