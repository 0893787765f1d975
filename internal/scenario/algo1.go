package scenario

import (
	"time"

	"starvation/internal/cca/algo1"
	"starvation/internal/netem/jitter"
	"starvation/internal/network"
	"starvation/internal/rng"
	"starvation/internal/units"
)

// algo1Fairness exercises the paper's proposed CCA (§6.3, Algorithm 1):
// two flows share a 100 Mbit/s link while one flow's path adds adversarial
// non-congestive delay up to D = 10 ms (the bound the algorithm designed
// for). Because the exponential rate-delay mapping keeps rates a factor s
// apart mapped to delays ≥ D apart, the steady-state throughput ratio must
// stay ≤ s (here s = 2) — s-fairness instead of starvation.
func algo1Fairness(o Opts) *Result {
	o.fill(120 * time.Second)
	const rm = 50 * time.Millisecond
	mk := func() *algo1.Algo1 {
		return algo1.New(algo1.Config{Rm: rm, A: units.Mbps(1)})
	}
	res := o.emulate(
		network.Config{Rate: units.Mbps(100)},
		network.FlowSpec{
			Name:      "jittered",
			Alg:       mk(),
			Rm:        rm,
			FwdJitter: &jitter.Uniform{Max: algo1.DefaultD, Rng: rng.New(o.Seed*17 + 1)},
		},
		network.FlowSpec{
			Name: "clean",
			Alg:  mk(),
			Rm:   rm,
		},
	)
	return &Result{
		ID:          "X-A1",
		Description: "Algorithm 1 two flows, 100 Mbit/s, adversarial jitter ≤ D=10ms on one",
		PaperClaim:  "s-fair (ratio ≤ s = 2) and efficient; CCAC found no bad traces",
		Net:         res,
		Observables: map[string]float64{
			"jittered_mbps": res.Flows[0].Stat.SteadyThpt.Mbit(),
			"clean_mbps":    res.Flows[1].Stat.SteadyThpt.Mbit(),
			"ratio":         res.Ratio(),
			"utilization":   res.Utilization(),
			"s_bound":       algo1.DefaultS,
		},
	}
}
