// Population-scale scenarios: the paper proves starvation pairwise (two
// flows, Theorem 1); these experiments scale the same machinery to N-flow
// populations — mixed CCAs, heterogeneous RTTs, multi-hop topologies —
// and report the population starvation statistics (starved fraction under
// the ε·fair-share threshold, share-ratio quantiles, per-cohort Jain).

package scenario

import (
	"fmt"
	"math"
	"time"

	"starvation/internal/core"

	// Population clauses may name any registered algorithm.
	_ "starvation/internal/cca/algo1"
	_ "starvation/internal/cca/allegro"
	_ "starvation/internal/cca/bbr"
	_ "starvation/internal/cca/constwnd"
	_ "starvation/internal/cca/copa"
	_ "starvation/internal/cca/cubic"
	_ "starvation/internal/cca/fast"
	_ "starvation/internal/cca/ledbat"
	_ "starvation/internal/cca/reno"
	_ "starvation/internal/cca/vegas"
	_ "starvation/internal/cca/verus"
	_ "starvation/internal/cca/vivace"
)

// runPopulationSpec runs one population scenario: spec carries the
// published parameters (its Duration the scenario's default), o the seed,
// a duration override and the run's attachments. Clause strings are
// package constants, so parse errors are programming errors and panic like
// network.New does on bad specs.
func runPopulationSpec(id, desc, claim string, spec PopulationSpec, o Opts) *Result {
	o.fill(spec.Duration)
	spec.Seed, spec.Duration = o.Seed, o.Duration
	cfg, err := spec.Config()
	if err != nil {
		panic(fmt.Sprintf("scenario %s: %v", id, err))
	}
	cfg.Guard, cfg.Probe, cfg.Ctx, cfg.Telemetry, cfg.Session = o.Guard, o.Probe, o.Ctx, o.Telemetry, o.Session
	pr, err := core.RunPopulation(cfg)
	if err != nil {
		panic(fmt.Sprintf("scenario %s: %v", id, err))
	}
	st := pr.Stats
	obsv := map[string]float64{
		"flows":           float64(st.N),
		"starved":         float64(st.Starved),
		"starved_frac":    st.StarvedFraction,
		"jain":            st.Jain,
		"share_p5":        st.ShareP5,
		"share_p50":       st.ShareP50,
		"share_p95":       st.ShareP95,
		"utilization_pct": 100 * pr.Net.Utilization(),
	}
	// max/min is +Inf when a flow got nothing; observables are plain
	// floats, so cap it to keep the table printable.
	if !math.IsInf(st.MaxOverMin, 1) {
		obsv["max_over_min"] = st.MaxOverMin
	}
	for _, c := range st.Cohorts {
		if c.Cohort != "" {
			obsv["starved_"+c.Cohort] = float64(c.Starved)
		}
	}
	return &Result{
		ID:          id,
		Description: desc,
		PaperClaim:  claim,
		Net:         pr.Net,
		Observables: obsv,
	}
}

// populationMixed contends three CCA cohorts at one bottleneck.
func populationMixed(o Opts) *Result {
	return runPopulationSpec("P6.1",
		"24-flow mixed population (vegas/reno/copa) on one 48 Mbit/s bottleneck",
		"extension beyond the paper: Theorem 1's pairwise starvation, "+
			"measured as a population starved-fraction across CCA cohorts",
		PopulationSpec{
			Flows:      "vegas*8:stagger=50ms;reno*8:stagger=50ms;copa*8:stagger=50ms",
			Topology:   "single",
			RateMbps:   48,
			BufferPkts: 128,
			Duration:   12 * time.Second,
		}, o)
}

// populationRTT contends one CCA across heterogeneous-RTT cohorts.
func populationRTT(o Opts) *Result {
	return runPopulationSpec("P6.2",
		"24 reno flows in 20/80/160 ms RTT cohorts on one 48 Mbit/s bottleneck",
		"extension beyond the paper: RTT-unfair loss-based control; "+
			"long-RTT cohorts hold shares far below fair and starve first",
		PopulationSpec{
			Flows: "reno*8:rm=20ms,cohort=rtt20,stagger=50ms;" +
				"reno*8:rm=80ms,cohort=rtt80,stagger=50ms;" +
				"reno*8:rm=160ms,cohort=rtt160,stagger=50ms",
			Topology:   "single",
			RateMbps:   48,
			BufferPkts: 128,
			Duration:   12 * time.Second,
		}, o)
}

// populationParkingLot runs long flows over a 3-hop chain against one-hop
// cross traffic.
func populationParkingLot(o Opts) *Result {
	return runPopulationSpec("P6.3",
		"parking-lot: 6 long vegas flows over 3 hops vs 6 one-hop reno cross flows",
		"extension beyond the paper: multi-bottleneck chain; long flows "+
			"pay every hop's queue and lose to single-hop cross traffic",
		PopulationSpec{
			Flows: "vegas*6:cohort=long,stagger=50ms;" +
				"reno*2:path=0,cohort=cross,stagger=50ms;" +
				"reno*2:path=1,cohort=cross,stagger=50ms;" +
				"reno*2:path=2,cohort=cross,stagger=50ms",
			Topology:   "parkinglot:3",
			RateMbps:   24,
			BufferPkts: 64,
			Duration:   12 * time.Second,
		}, o)
}

// populationFanIn funnels two CCA cohorts through a shared uplink.
func populationFanIn(o Opts) *Result {
	return runPopulationSpec("P6.4",
		"fan-in: 16 flows (vegas/reno) over 4 access links into one 32 Mbit/s uplink",
		"extension beyond the paper: contention concentrates at the shared "+
			"uplink; with plain drop-tail buffers the fan-in stays near-fair — "+
			"topology alone does not reproduce the paper's jitter-driven starvation",
		PopulationSpec{
			Flows:      "vegas*8:stagger=50ms;reno*8:stagger=50ms",
			Topology:   "fanin:4",
			RateMbps:   32,
			BufferPkts: 96,
			Duration:   12 * time.Second,
		}, o)
}

// populationMixed500 is the nightly large-N smoke: 500 flows across four
// CCA cohorts. It exists to exercise population scale (event pool, obs
// aggregation, population statistics) end to end, not to publish numbers.
func populationMixed500(o Opts) *Result {
	return runPopulationSpec("P6.5",
		"500-flow mixed population (vegas/reno/copa/bbr) on one 250 Mbit/s bottleneck",
		"extension beyond the paper: population-scale smoke; starved "+
			"fraction and share quantiles at N=500",
		PopulationSpec{
			Flows: "vegas*125:stagger=8ms;reno*125:stagger=8ms;" +
				"copa*125:stagger=8ms;bbr*125:stagger=8ms",
			Topology:   "single",
			RateMbps:   250,
			BufferPkts: 512,
			Duration:   8 * time.Second,
		}, o)
}
