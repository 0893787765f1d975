package core

import (
	"math/rand"
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/cca/bbr"
	"starvation/internal/cca/ledbat"
	"starvation/internal/cca/verus"
	"starvation/internal/netem/jitter"
	"starvation/internal/network"
	"starvation/internal/units"
)

func TestFig3LEDBAT(t *testing.T) {
	c := units.Mbps(24)
	conv := MeasureConvergence(func() cca.Algorithm {
		return ledbat.New(ledbat.Config{})
	}, c, fig3Rm, fig3Opts())
	// LEDBAT steers its queueing toward TARGET (25ms): RTT near
	// Rm + 25ms regardless of C. The RFC's linear controller with
	// RTT-delayed feedback rings around the setpoint, so the band is a
	// couple of tens of ms wide — still delay-convergent and (per Thm 1
	// with D > 2δmax) still starvable.
	lo := fig3Rm + 8*time.Millisecond
	hi := fig3Rm + 35*time.Millisecond
	if conv.SteadyMeanRTT < lo || conv.SteadyMeanRTT > hi {
		t.Errorf("steady mean RTT %v, want within [%v, %v]", conv.SteadyMeanRTT, lo, hi)
	}
	if conv.efficiency() < 0.9 {
		t.Errorf("efficiency %.3f", conv.efficiency())
	}
	if conv.Delta > 35*time.Millisecond {
		t.Errorf("δ = %v, want bounded (delay-convergent)", conv.Delta)
	}
}

func TestFig3Verus(t *testing.T) {
	c := units.Mbps(24)
	conv := MeasureConvergence(func() cca.Algorithm {
		return verus.New(verus.Config{})
	}, c, fig3Rm, fig3Opts())
	// Verus targets delays near R·Dmin = 2·Rm with profile-resolution
	// oscillation: bounded dmax, nonzero but bounded δ.
	if conv.DMax > 3*fig3Rm {
		t.Errorf("dmax %v, want bounded near 2·Rm", conv.DMax)
	}
	if conv.DMin < fig3Rm {
		t.Errorf("dmin %v below Rm", conv.DMin)
	}
	if conv.efficiency() < 0.7 {
		t.Errorf("efficiency %.3f", conv.efficiency())
	}
}

// TestBBRCwndLimitedEquilibrium exercises the Figure 3 right panel's upper
// line. The paper notes cwnd-limited mode needs jitter plus competition:
// "their interaction and natural OS jitter was enough to push them into
// cwnd-limited mode" — each flow's max filter latches its peak share, the
// latched estimates sum beyond C, the queue grows, and the cwnd cap
// 2·bw·Rm + α takes over with equilibrium RTT = 2·Rm + n·α/C (§5.2's
// fixed-point calculation), far above the pacing band [Rm, 1.25·Rm].
func TestBBRCwndLimitedEquilibrium(t *testing.T) {
	rm := 50 * time.Millisecond
	c := units.Mbps(24)
	mk := func(seed int64) network.FlowSpec {
		return network.FlowSpec{
			Alg: bbr.New(bbr.Config{Rng: rand.New(rand.NewSource(seed))}),
			Rm:  rm,
			FwdJitter: &jitter.Uniform{Max: 2 * time.Millisecond,
				Rng: rand.New(rand.NewSource(seed + 100))},
		}
	}
	n := network.New(network.Config{Rate: c, Seed: 3}, mk(9), mk(11))
	res := n.Run(40 * time.Second)
	t.Logf("\n%s", res)

	// Both flows must leave the pacing band: the combined mean RTT sits
	// above 1.25·Rm + jitter and below the 3·Rm sanity line.
	pacingCeiling := rm + rm/4 + 4*time.Millisecond
	for _, f := range res.Flows {
		if f.Stat.MeanRTT <= pacingCeiling {
			t.Errorf("%s mean RTT %v still in pacing band (≤ %v): cwnd-limited mode not entered",
				f.Name, f.Stat.MeanRTT, pacingCeiling)
		}
		if f.Stat.MeanRTT > 4*rm {
			t.Errorf("%s mean RTT %v, want bounded near 2·Rm", f.Name, f.Stat.MeanRTT)
		}
	}
	if res.Utilization() < 0.9 {
		t.Errorf("utilization %.3f: cwnd-limited BBR should still fill the link", res.Utilization())
	}
}
