package scenario

import (
	"time"

	"starvation/internal/cca/copa"
	"starvation/internal/netem/jitter"
	"starvation/internal/network"
	"starvation/internal/units"
)

// copaPoisonPath builds the §5.1 path: the link's propagation is Rm − 1 ms
// and a constant 1 ms non-congestive delay restores the true Rm = 60 ms for
// every packet except one, which is released without the hold — a single
// 59 ms RTT sample that permanently corrupts Copa's minimum-RTT estimate.
func copaPoisonFlow(name string, poisoned bool) network.FlowSpec {
	const (
		rm  = 60 * time.Millisecond
		dip = time.Millisecond
	)
	spec := network.FlowSpec{
		Name: name,
		Alg:  copa.New(copa.Config{}),
		Rm:   rm - dip,
	}
	if poisoned {
		// The dip fires at t=10s, past slow start, and stays open for half
		// a second — long enough to include one of Copa's periodic
		// queue-drain instants (the standing-RTT mechanism empties the
		// queue every ~5 RTTs). A packet passing at such an instant
		// observes an RTT ~1 ms below the floor every other packet can
		// reach, which is all the poisoning needs; with a queue standing
		// above 1 ms the dip would be invisible.
		spec.FwdJitter = &jitter.OneShotDip{Base: dip, At: 10 * time.Second, Width: 500 * time.Millisecond}
	} else {
		spec.FwdJitter = jitter.Constant{D: dip}
	}
	return spec
}

// copaSingleFlowPoison reproduces §5.1's single-flow experiment: one Copa
// flow on a 120 Mbit/s link with Rm = 60 ms receives a single packet with a
// 59 ms RTT. The paper measured 8 Mbit/s — a 1 ms measurement error on one
// packet costing ~93% of the link.
func copaSingleFlowPoison(o Opts) *Result {
	o.fill(60 * time.Second)
	res := o.emulate(
		network.Config{Rate: units.Mbps(120)},
		copaPoisonFlow("copa", true),
	)
	return &Result{
		ID:          "T5.1a",
		Description: "Copa single flow, 120 Mbit/s, Rm=60ms, one 59ms-RTT packet",
		PaperClaim:  "throughput 8 Mbit/s (vs 120 available)",
		Net:         res,
		Observables: map[string]float64{
			"throughput_mbps": res.Flows[0].Stat.SteadyThpt.Mbit(),
			"utilization":     res.Utilization(),
		},
	}
}

// copaTwoFlowPoison reproduces §5.1's two-flow variant: only one flow gets
// the 59 ms packet. The paper measured 8.8 vs 95 Mbit/s.
func copaTwoFlowPoison(o Opts) *Result {
	o.fill(60 * time.Second)
	res := o.emulate(
		network.Config{Rate: units.Mbps(120)},
		copaPoisonFlow("poisoned", true),
		copaPoisonFlow("clean", false),
	)
	return &Result{
		ID:          "T5.1b",
		Description: "Copa two flows, 120 Mbit/s, Rm=60ms, 59ms dip on one flow",
		PaperClaim:  "8.8 vs 95 Mbit/s (ratio ~10.8)",
		Net:         res,
		Observables: map[string]float64{
			"poisoned_mbps": res.Flows[0].Stat.SteadyThpt.Mbit(),
			"clean_mbps":    res.Flows[1].Stat.SteadyThpt.Mbit(),
			"ratio":         res.Ratio(),
		},
	}
}
