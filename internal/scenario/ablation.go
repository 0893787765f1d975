package scenario

import (
	"time"

	"starvation/internal/cca/algo1"
	"starvation/internal/netem/jitter"
	"starvation/internal/network"
	"starvation/internal/rng"
	"starvation/internal/units"
)

// algo1Ablation compares the published Algorithm 1 against the two design
// alternatives the paper says CCAC rejected during tuning (§6.3):
//
//   - AIAD: subtractive instead of multiplicative decrease ("the fairness
//     properties of AIMD are critical in the presence of measurement
//     ambiguity");
//   - per-ACK updates instead of once-per-Rm ("change the rate by the same
//     amount every RTT independent of the number of ACKs received").
//
// Each variant runs the X-A1 topology: two flows, 100 Mbit/s, one flow
// behind adversarial jitter ≤ D. The published design must post the best
// (lowest) unfairness ratio.
func algo1Ablation(o Opts) *Result {
	o.fill(120 * time.Second)
	const rm = 50 * time.Millisecond
	run := func(aiad, perAck bool) *network.Result {
		mk := func() *algo1.Algo1 {
			return algo1.New(algo1.Config{Rm: rm, A: units.Mbps(1), AIAD: aiad, PerAck: perAck})
		}
		res := o.emulate(
			network.Config{Rate: units.Mbps(100)},
			network.FlowSpec{
				Name: "jittered", Alg: mk(), Rm: rm,
				FwdJitter: &jitter.Uniform{Max: algo1.DefaultD, Rng: rng.New(o.Seed*17 + 1)},
			},
			network.FlowSpec{Name: "clean", Alg: mk(), Rm: rm},
		)
		return res
	}
	aimd := run(false, false)
	aiad := run(true, false)
	perAck := run(false, true)
	return &Result{
		ID:          "X-A1-ablation",
		Description: "Algorithm 1 design ablation: AIMD/per-Rm vs AIAD vs per-ACK, under jitter ≤ D",
		PaperClaim:  "CCAC fine-tuning chose AIMD and per-RTT updates (§6.3)",
		Net:         aimd,
		Observables: map[string]float64{
			"aimd_ratio":         aimd.Ratio(),
			"aimd_utilization":   aimd.Utilization(),
			"aiad_ratio":         aiad.Ratio(),
			"aiad_utilization":   aiad.Utilization(),
			"perack_ratio":       perAck.Ratio(),
			"perack_utilization": perAck.Utilization(),
		},
	}
}
