package scenario

import (
	"time"

	"starvation/internal/cca/vivace"
	"starvation/internal/endpoint"
	"starvation/internal/network"
	"starvation/internal/rng"
	"starvation/internal/units"
)

// vivaceAckAggregation reproduces §5.3: two PCC Vivace flows on a
// 120 Mbit/s link with 60 ms propagation delay; one flow's ACKs are
// released only at integer multiples of 60 ms, "preventing finer delay
// measurement". The paper measured 9.9 vs 99.4 Mbit/s.
func vivaceAckAggregation(o Opts) *Result {
	o.fill(60 * time.Second)
	mk := func(name string, seed int64, aggregate bool) network.FlowSpec {
		spec := network.FlowSpec{
			Name: name,
			Alg:  vivace.New(vivace.Config{Rng: rng.New(seed)}),
			Rm:   60 * time.Millisecond,
		}
		if aggregate {
			spec.Ack = endpoint.AckConfig{AggregatePeriod: 60 * time.Millisecond}
		}
		return spec
	}
	res := o.emulate(
		network.Config{Rate: units.Mbps(120)},
		mk("quantized", o.Seed*11+1, true),
		mk("clean", o.Seed*11+2, false),
	)
	return &Result{
		ID:          "T5.3",
		Description: "Vivace two flows, 120 Mbit/s, Rm=60ms, one flow's ACKs at 60ms multiples",
		PaperClaim:  "9.9 vs 99.4 Mbit/s (ratio ~10)",
		Net:         res,
		Observables: map[string]float64{
			"quantized_mbps": res.Flows[0].Stat.SteadyThpt.Mbit(),
			"clean_mbps":     res.Flows[1].Stat.SteadyThpt.Mbit(),
			"ratio":          res.Ratio(),
		},
	}
}
