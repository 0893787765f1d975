package scenario

import (
	"time"

	"starvation/internal/cca/reno"
	"starvation/internal/netem"
	"starvation/internal/network"
	"starvation/internal/rng"
	"starvation/internal/units"
)

// ecnAvoidsStarvation demonstrates §6.4's conjecture: ECN is an unambiguous
// congestion signal, so a CCA that reacts to marks and ignores small loss
// cannot be fooled by per-flow non-congestive signal asymmetries.
//
// Two AIMD flows share a 48 Mbit/s link with RED marking; one flow's path
// injects 1% random non-congestive loss. The ECN-reacting, loss-blind
// flows share fairly because both see the same marks at the shared queue;
// the loss-reacting control pair in the same setting is skewed by the
// injected loss (the Mathis √p unfairness, unbounded as the clean flow's
// loss rate → 0).
func ecnAvoidsStarvation(o Opts) *Result {
	o.fill(60 * time.Second)
	run := func(ecn bool) *network.Result {
		mk := func() *reno.Reno {
			return reno.New(reno.Config{ReactToECN: ecn, LossBlind: ecn})
		}
		res := o.emulate(
			network.Config{
				Rate:        units.Mbps(48),
				BufferBytes: 400 * 1500,
				Marker: &netem.REDMarker{
					MinBytes: 20 * 1500, MaxBytes: 80 * 1500, MaxP: 0.2,
					Rng: rng.New(o.Seed*31 + 5),
				},
			},
			network.FlowSpec{
				Name: "lossy", Alg: mk(), Rm: 40 * time.Millisecond,
				LossProb: 0.01,
			},
			network.FlowSpec{
				Name: "clean", Alg: mk(), Rm: 40 * time.Millisecond,
			},
		)
		return res
	}
	withECN := run(true)
	lossBased := run(false)
	return &Result{
		ID:          "X-ECN",
		Description: "AIMD ×2 on RED link, 1% non-congestive loss on one flow: ECN-reacting vs loss-reacting",
		PaperClaim:  "§6.4: ECN + ignoring small loss may prevent starvation",
		Net:         withECN,
		Observables: map[string]float64{
			"ecn_ratio":        withECN.Ratio(),
			"ecn_jain":         withECN.Jain(),
			"ecn_utilization":  withECN.Utilization(),
			"loss_ratio":       lossBased.Ratio(),
			"loss_jain":        lossBased.Jain(),
			"loss_utilization": lossBased.Utilization(),
		},
	}
}
