package scenario

import (
	"time"

	"starvation/internal/cca"
	"starvation/internal/cca/cubic"
	"starvation/internal/cca/reno"
	"starvation/internal/endpoint"
	"starvation/internal/network"
	"starvation/internal/units"
)

// fig7 runs the Fig. 7 topology: two flows of the same loss-based CCA on a
// 6 Mbit/s, 120 ms link with a 60-packet buffer; the first flow's receiver
// delays ACKs up to 4 packets (making the sender bursty and hence more
// likely to lose at the nearly-full drop-tail queue), the second ACKs every
// packet. The paper reports bounded unfairness: throughput ratios of 2.7×
// (Reno) and 3.2× (Cubic) — unfair, but not starvation, because AIMD's
// equilibrium lives in loss frequency, not in an absolute delay.
func fig7(o Opts, id, name string, mk func() cca.Algorithm, claim string) *Result {
	o.fill(200 * time.Second)
	res := o.emulate(
		network.Config{Rate: units.Mbps(6), BufferBytes: 60 * endpoint.DefaultMSS},
		network.FlowSpec{
			Name: "delacked",
			Alg:  mk(),
			Rm:   120 * time.Millisecond,
			Ack:  endpoint.AckConfig{DelayCount: 4, DelayTimeout: 200 * time.Millisecond},
		},
		network.FlowSpec{
			Name: "perpacket",
			Alg:  mk(),
			Rm:   120 * time.Millisecond,
		},
	)
	return &Result{
		ID:          id,
		Description: name + " two flows, 6 Mbit/s, Rm=120ms, 60-pkt buffer, delayed ACKs ×4 on one",
		PaperClaim:  claim,
		Net:         res,
		Observables: map[string]float64{
			"delacked_mbps":  res.Flows[0].Stat.SteadyThpt.Mbit(),
			"perpacket_mbps": res.Flows[1].Stat.SteadyThpt.Mbit(),
			"ratio":          res.Ratio(),
			"utilization":    res.Utilization(),
		},
	}
}

// fig7Reno is the left panel of Fig. 7.
func fig7Reno(o Opts) *Result {
	return fig7(o, "F7-reno", "Reno",
		func() cca.Algorithm { return reno.New(reno.Config{}) },
		"ratio 2.7×, bounded (no starvation)")
}

// fig7Cubic is the right panel of Fig. 7.
func fig7Cubic(o Opts) *Result {
	return fig7(o, "F7-cubic", "Cubic",
		func() cca.Algorithm {
			return cubic.New(cubic.Config{})
		},
		"ratio 3.2×, bounded (no starvation)")
}
