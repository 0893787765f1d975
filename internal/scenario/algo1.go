package scenario

import (
	"time"

	"starvation/internal/cca/algo1"
	"starvation/internal/cca/vegas"
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

// vegasUnderJitter is the contrast case for X-A1: Vegas flows in the same
// jitter setting starve, because Vegas maps its whole rate range into a
// delay band smaller than the jitter.
func vegasUnderJitter(o Opts) *Result {
	o.fill(120 * time.Second)
	const (
		rm = 50 * time.Millisecond
		d  = 10 * time.Millisecond
	)
	// The jitter switches on at t=10s, after the flow has learned its true
	// minimum RTT: from then on the persistent 10 ms hold is
	// indistinguishable from queueing (were it present from t=0, Vegas
	// would simply fold it into baseRTT — the attack needs the ambiguity).
	stepJitter := &jitter.Scripted{
		Max: d,
		Fn: func(now time.Duration) time.Duration {
			if now < 10*time.Second {
				return 0
			}
			return d
		},
	}
	res := o.emulate(
		network.Config{Rate: units.Mbps(100)},
		network.FlowSpec{
			Name:      "jittered",
			Alg:       vegas.New(vegas.Config{}),
			Rm:        rm,
			FwdJitter: stepJitter,
		},
		network.FlowSpec{
			Name: "clean",
			Alg:  vegas.New(vegas.Config{}),
			Rm:   rm,
		},
	)
	return &Result{
		ID:          "X-A1v",
		Description: "Vegas two flows in the X-A1 setting (persistent 10ms jitter on one)",
		PaperClaim:  "starves: Vegas cannot distinguish the jitter from queueing",
		Net:         res,
		Observables: map[string]float64{
			"jittered_mbps": res.Flows[0].Stat.SteadyThpt.Mbit(),
			"clean_mbps":    res.Flows[1].Stat.SteadyThpt.Mbit(),
			"ratio":         res.Ratio(),
		},
	}
}

// quickstartVegas is the minimal two-identical-flows sanity scenario
// (starvesim -scenario quickstart-vegas): on a clean path, two Vegas flows
// share fairly, the baseline every starvation scenario perturbs.
func quickstartVegas(o Opts) *Result {
	o.fill(60 * time.Second)
	res := o.emulate(
		network.Config{Rate: units.Mbps(48)},
		network.FlowSpec{Name: "flow0", Alg: vegas.New(vegas.Config{}), Rm: 80 * time.Millisecond},
		network.FlowSpec{Name: "flow1", Alg: vegas.New(vegas.Config{}), Rm: 80 * time.Millisecond,
			StartAt: 5 * time.Second},
	)
	return &Result{
		ID:          "quickstart",
		Description: "Two Vegas flows, 48 Mbit/s, Rm=80ms, clean path, staggered start",
		PaperClaim:  "fair sharing on an ideal path (the baseline the theorems perturb)",
		Net:         res,
		Observables: map[string]float64{
			"flow0_mbps":  res.Flows[0].Stat.SteadyThpt.Mbit(),
			"flow1_mbps":  res.Flows[1].Stat.SteadyThpt.Mbit(),
			"ratio":       res.Ratio(),
			"jain":        res.Jain(),
			"utilization": res.Utilization(),
		},
	}
}
