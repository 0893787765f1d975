package scenario

import (
	"time"

	"starvation/internal/cca/allegro"
	"starvation/internal/netem/faults"
	"starvation/internal/network"
	"starvation/internal/rng"
	"starvation/internal/units"
)

const (
	allegroRate = 120 // Mbit/s
	allegroRm   = 40 * time.Millisecond
)

// allegroBDP is the 1-BDP buffer of §5.4 in bytes.
func allegroBDP() int {
	return units.BDPBytes(units.Mbps(allegroRate), allegroRm)
}

func allegroFlow(name string, seed int64, loss float64) network.FlowSpec {
	return network.FlowSpec{
		Name:     name,
		Alg:      allegro.New(allegro.Config{Rng: rng.New(seed)}),
		Rm:       allegroRm,
		LossProb: loss,
	}
}

// allegroRandomLoss reproduces §5.4's headline case: two PCC Allegro flows
// on a 120 Mbit/s, 40 ms, 1-BDP-buffer path; one flow sees 2% random loss.
// The paper measured 10.3 vs 99.1 Mbit/s — although Allegro is "supposed to
// be resilient to up to 5% loss".
func allegroRandomLoss(o Opts) *Result {
	o.fill(60 * time.Second)
	res := o.emulate(
		network.Config{Rate: units.Mbps(allegroRate), BufferBytes: allegroBDP()},
		allegroFlow("lossy", o.Seed*13+1, 0.02),
		allegroFlow("clean", o.Seed*13+2, 0),
	)
	return &Result{
		ID:          "T5.4a",
		Description: "Allegro two flows, 120 Mbit/s, Rm=40ms, 1 BDP buffer, 2% loss on one",
		PaperClaim:  "10.3 vs 99.1 Mbit/s (ratio ~10)",
		Net:         res,
		Observables: map[string]float64{
			"lossy_mbps": res.Flows[0].Stat.SteadyThpt.Mbit(),
			"clean_mbps": res.Flows[1].Stat.SteadyThpt.Mbit(),
			"ratio":      res.Ratio(),
		},
	}
}

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
	bursty := allegroFlow("bursty", o.Seed*13+1, 0)
	bursty.Faults = &faults.Spec{GE: &ge}
	res := o.emulate(
		network.Config{Rate: units.Mbps(allegroRate), BufferBytes: allegroBDP()},
		bursty,
		allegroFlow("clean", o.Seed*13+2, 0),
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

// allegroBothLossy is §5.4's control: with both flows at 2% loss "they
// shared the link fairly and efficiently".
func allegroBothLossy(o Opts) *Result {
	o.fill(60 * time.Second)
	res := o.emulate(
		network.Config{Rate: units.Mbps(allegroRate), BufferBytes: allegroBDP()},
		allegroFlow("lossy0", o.Seed*13+1, 0.02),
		allegroFlow("lossy1", o.Seed*13+2, 0.02),
	)
	return &Result{
		ID:          "T5.4b",
		Description: "Allegro two flows, both at 2% random loss (control)",
		PaperClaim:  "fair and efficient sharing",
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

// allegroSingleLossy is §5.4's second control: a single flow with 2% loss
// "was able to fully utilize the link capacity".
func allegroSingleLossy(o Opts) *Result {
	o.fill(60 * time.Second)
	res := o.emulate(
		network.Config{Rate: units.Mbps(allegroRate), BufferBytes: allegroBDP()},
		allegroFlow("lossy", o.Seed*13+1, 0.02),
	)
	return &Result{
		ID:          "T5.4c",
		Description: "Allegro single flow with 2% random loss (control)",
		PaperClaim:  "full link utilization",
		Net:         res,
		Observables: map[string]float64{
			"throughput_mbps": res.Flows[0].Stat.SteadyThpt.Mbit(),
			"utilization":     res.Utilization(),
		},
	}
}
