package core

import (
	"math/rand"
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/endpoint"
	"starvation/internal/netem/jitter"
	"starvation/internal/network"
	"starvation/internal/units"
)

// bbrCwndLimitedRTT returns the cwnd-limited equilibrium RTT of n BBR
// flows: 2·Rm + n·α/C (§5.2). The extra Rm of standing queue is what makes
// BBR robust to jitter smaller than Rm.
func bbrCwndLimitedRTT(c units.Rate, rm time.Duration, n int, quantaPkts float64, mss int) time.Duration {
	if c <= 0 {
		return 2 * rm
	}
	queued := float64(n) * quantaPkts * float64(mss) * 8 / float64(c)
	return 2*rm + time.Duration(queued*float64(time.Second))
}

func TestBBRCwndLimitedRTT(t *testing.T) {
	// §5.2: RTT = 2·Rm + n·α/C.
	rm := 40 * time.Millisecond
	got := bbrCwndLimitedRTT(units.Mbps(120), rm, 2, 4, 1500)
	want := 2*rm + time.Duration(2*4*1500*8*1e9/120e6)
	if got != want {
		t.Errorf("BBR cwnd-limited RTT = %v, want %v", got, want)
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
			Alg: cca.Lookup("bbr")(endpoint.DefaultMSS, rand.New(rand.NewSource(seed))),
			Rm:  rm,
			FwdJitter: &jitter.Uniform{Max: 2 * time.Millisecond,
				Rng: rand.New(rand.NewSource(seed + 100))},
		}
	}
	n := network.New(network.Config{Rate: c, Seed: 3}, mk(9), mk(11))
	res := n.Run(40 * time.Second)
	t.Logf("\n%s", res)

	// Both flows must reach the cwnd-limited line 2·Rm + n·α/C, with bbr's
	// default of α = 4 packets, and stay below the 4·Rm sanity line.
	floor := bbrCwndLimitedRTT(c, rm, len(res.Flows), 4, endpoint.DefaultMSS)
	for _, f := range res.Flows {
		if f.Stat.MeanRTT < floor {
			t.Errorf("%s mean RTT %v below the cwnd-limited RTT %v: cwnd-limited mode not entered",
				f.Name, f.Stat.MeanRTT, floor)
		}
		if f.Stat.MeanRTT > 4*rm {
			t.Errorf("%s mean RTT %v, want bounded near 2·Rm", f.Name, f.Stat.MeanRTT)
		}
	}
	if res.Utilization() < 0.9 {
		t.Errorf("utilization %.3f: cwnd-limited BBR should still fill the link", res.Utilization())
	}
}
