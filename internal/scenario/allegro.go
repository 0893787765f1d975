package scenario

import (
	"time"

	"starvation/internal/cca/allegro"
	"starvation/internal/endpoint"
	"starvation/internal/netem/faults"
	"starvation/internal/network"
	"starvation/internal/rng"
	"starvation/internal/units"
)

// allegroBurstLoss extends §5.4 beyond the paper: the same two-Allegro
// topology, but the lossy flow's ~2% average loss arrives in
// Gilbert–Elliott bursts (bad-state episodes of ~5 packets dropping half
// their packets) instead of independently. The chain's stationary loss
// rate, PGoodToBad/(PGoodToBad+PBadToGood) × PDropBad ≈ 1.9%, matches
// T5.4a's Bernoulli rate, isolating burstiness as the only variable —
// the impairment class where loss-resilience claims break down in BBR
// evaluations, and one Allegro's per-monitor-interval sigmoid utility
// reacts to just as badly as to independent loss.
func allegroBurstLoss(o Opts) *Result {
	o.fill(60 * time.Second)
	ge := faults.GEConfig{PGoodToBad: 0.008, PBadToGood: 0.2, PDropBad: 0.5}
	flow := func(name string, i int) network.FlowSpec {
		seed, _ := flowSeeds(o.Seed, allegroStride, i)
		return network.FlowSpec{
			Name: name,
			Alg:  allegro.New(allegro.Config{Rng: rng.New(seed)}),
			Rm:   40 * time.Millisecond,
		}
	}
	bursty := flow("bursty", 0)
	bursty.Faults = &faults.Spec{GE: &ge}
	res := o.emulate(
		network.Config{Rate: units.Mbps(120), BufferBytes: allegroBufferPkts * endpoint.DefaultMSS},
		bursty,
		flow("clean", 1),
	)
	fc := res.Flows[0].Faults
	var lossRate float64
	if total := fc.GEPassed + fc.GEDropped; total > 0 {
		lossRate = float64(fc.GEDropped) / float64(total)
	}
	return &Result{
		ID:          "T5.4d",
		Description: "Allegro two flows, Gilbert–Elliott bursty loss (~2% mean) on one (extension)",
		PaperClaim:  "no paper row; T5.4a analogue — starvation should persist under bursty loss at matched mean rate",
		Net:         res,
		Observables: map[string]float64{
			"bursty_mbps":    res.Flows[0].Stat.SteadyThpt.Mbit(),
			"clean_mbps":     res.Flows[1].Stat.SteadyThpt.Mbit(),
			"ratio":          res.Ratio(),
			"ge_mean_loss":   ge.MeanLoss(),
			"ge_actual_loss": lossRate,
			"ge_bursts":      float64(fc.GEBursts),
		},
	}
}
