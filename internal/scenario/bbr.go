package scenario

import (
	"time"

	"starvation/internal/cca/bbr"
	"starvation/internal/netem/jitter"
	"starvation/internal/network"
	"starvation/internal/rng"
	"starvation/internal/units"
)

// bBRTwoFlowRTT reproduces §5.2: two BBR flows with Rm of 40 ms and 80 ms
// share a 120 Mbit/s bottleneck for 60 s. The paper ran this on Mahimahi
// where "their interaction and natural OS jitter was enough to push them
// into cwnd-limited mode"; our emulator is deterministic, so the OS jitter
// is modelled explicitly as a small bounded uniform delay (≤ 2 ms) on each
// flow's path — the substitution DESIGN.md documents. The paper measured
// 8.3 vs 107 Mbit/s.
func bBRTwoFlowRTT(o Opts) *Result {
	o.fill(60 * time.Second)
	mk := func(name string, rm time.Duration, seed int64) network.FlowSpec {
		return network.FlowSpec{
			Name:      name,
			Alg:       bbr.New(bbr.Config{Rng: rng.New(seed)}),
			Rm:        rm,
			FwdJitter: &jitter.Uniform{Max: 2 * time.Millisecond, Rng: rng.New(seed + 1000)},
		}
	}
	res := o.emulate(
		network.Config{Rate: units.Mbps(120)},
		mk("rtt40", 40*time.Millisecond, o.Seed*7+1),
		mk("rtt80", 80*time.Millisecond, o.Seed*7+2),
	)
	f0, f1 := res.Flows[0].Stat.SteadyThpt.Mbit(), res.Flows[1].Stat.SteadyThpt.Mbit()
	return &Result{
		ID:          "T5.2",
		Description: "BBR two flows, 120 Mbit/s, Rm 40/80ms, ~2ms jitter, 60s",
		PaperClaim:  "8.3 vs 107 Mbit/s (order-of-magnitude; small-RTT flow starves)",
		Net:         res,
		Observables: map[string]float64{
			"rtt40_mbps": f0,
			"rtt80_mbps": f1,
			"ratio":      res.Ratio(),
		},
	}
}
