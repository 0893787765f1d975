package scenario

import (
	"fmt"
	"math"
	"time"

	"starvation/internal/endpoint"
	"starvation/internal/network"
	"starvation/internal/units"

	// Flow sets may name any registered algorithm.
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

// flowRow is a registered scenario stated as data: a flow-set spec, run
// through the same parser and network as -flows and the daemon, plus how
// its result is reported. The spec carries the published parameters (its
// Duration the scenario's default); a population row's statistics use
// the default ε.
type flowRow struct {
	id, desc, claim string
	spec            PopulationSpec
	// names, when set, renames the flows in clause order and clears their
	// cohort labels, so a two-flow row reports the paper's flow names.
	names []string
	// mbps names each flow's steady-state throughput observable, in flow
	// order, and totals the whole-run observables (keys of totals). A
	// row without mbps reports the population statistics. A row whose
	// flows carry a ge= gate also reports the gates (geObservables).
	mbps, totals []string
}

// totals are the whole-run observables a flowRow may list.
var totals = map[string]func(*network.Result) float64{
	"ratio":       (*network.Result).Ratio,
	"jain":        (*network.Result).Jain,
	"utilization": (*network.Result).Utilization,
}

// run runs one realization of the row: o supplies the seed, a duration
// override and the run's attachments. Specs are package constants, so a
// parse error is a programming error and panics like network.New does on
// bad specs.
func (r flowRow) run(o Opts) *Result {
	o.fill(r.spec.Duration)
	spec := r.spec
	spec.Seed, spec.Duration = o.Seed, o.Duration
	cfg, err := spec.Config()
	if err != nil {
		panic(fmt.Sprintf("scenario %s: %v", r.id, err))
	}
	for i, name := range r.names {
		cfg.Flows[i].Name, cfg.Flows[i].Cohort = name, ""
	}
	res := o.emulate(network.Config{
		Links: cfg.Links, Bottleneck: cfg.Bottleneck,
		Rate: cfg.Rate, BufferBytes: cfg.BufferBytes,
	}, cfg.Flows...)
	obsv := r.observe(res)
	geObservables(obsv, cfg.Flows, res)
	return &Result{
		ID:          r.id,
		Description: r.desc,
		PaperClaim:  r.claim,
		Net:         res,
		Observables: obsv,
	}
}

// observe reports one realization's observables: the named throughputs
// and totals, or for a population row the population starvation
// statistics (the starved fraction under the ε·fair-share threshold,
// share quantiles, Jain's index, and the starved count per cohort).
func (r flowRow) observe(res *network.Result) map[string]float64 {
	if r.mbps != nil {
		obsv := map[string]float64{}
		for i, k := range r.mbps {
			obsv[k] = res.Flows[i].Stat.SteadyThpt.Mbit()
		}
		for _, k := range r.totals {
			obsv[k] = totals[k](res)
		}
		return obsv
	}
	st := res.Population(0)
	obsv := map[string]float64{
		"flows":           float64(st.N),
		"starved":         float64(st.Starved),
		"starved_frac":    st.StarvedFraction,
		"jain":            st.Jain,
		"share_p5":        st.ShareP5,
		"share_p50":       st.ShareP50,
		"share_p95":       st.ShareP95,
		"utilization_pct": 100 * res.Utilization(),
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
	return obsv
}

// geObservables adds, when any flow carries a Gilbert–Elliott gate, the
// gates' mean stationary loss (what their chains average out to), the
// loss they realized over every packet they saw, and the loss bursts
// they started.
func geObservables(obsv map[string]float64, specs []network.FlowSpec, res *network.Result) {
	var gates int
	var mean float64
	var passed, dropped, bursts int64
	for i, f := range specs {
		if f.GE == nil {
			continue
		}
		gates++
		mean += f.GE.MeanLoss()
		fc := res.Flows[i].Faults
		passed += fc.GEPassed
		dropped += fc.GEDropped
		bursts += fc.GEBursts
	}
	if gates == 0 {
		return
	}
	var actual float64
	if total := passed + dropped; total > 0 {
		actual = float64(dropped) / float64(total)
	}
	obsv["ge_mean_loss"] = mean / float64(gates)
	obsv["ge_actual_loss"] = actual
	obsv["ge_bursts"] = float64(bursts)
}

// Seed strides of the randomized §5 rows (flowSeeds).
const (
	bbrStride     = 7
	vivaceStride  = 11
	allegroStride = 13
)

// allegroBufferPkts is §5.4's 1-BDP buffer (120 Mbit/s × 40 ms) in
// packets.
var allegroBufferPkts = units.BDPBytes(units.Mbps(120), 40*time.Millisecond) / endpoint.DefaultMSS

// copaPoisoned and copaClean are the §5.1 path: the link's propagation
// is Rm − 1 ms and a constant 1 ms hold restores the true Rm = 60 ms for
// every packet except those in one brief window, released without the
// hold — RTT samples 1 ms below the floor that permanently corrupt Copa's
// minimum-RTT estimate. The dip opens at t = 10 s, past slow start, and
// stays open for half a second: long enough to include one of Copa's
// periodic queue-drain instants (the standing-RTT mechanism empties the
// queue every ~5 RTTs). With a queue standing above 1 ms the dip would
// be invisible.
const (
	copaPoisoned = "copa:rm=59ms,jitter=dip:1ms/10s/500ms"
	copaClean    = "copa:rm=59ms,jitter=const:1ms"
)

// fig7Flows is the Fig. 7 flow pair for one loss-based CCA: the first
// flow's receiver delays ACKs up to 4 packets (making the sender bursty
// and hence more likely to lose at the nearly-full drop-tail queue), the
// second ACKs every packet. The paper reports bounded unfairness — unfair,
// but not starvation, because AIMD's equilibrium lives in loss
// frequency, not in an absolute delay.
func fig7Flows(cca string) string {
	return cca + ":rm=120ms,delack=4/200ms;" + cca + ":rm=120ms"
}

// rows are the registered scenarios stated as flow sets. Each §5 attack
// is one bounded non-congestive element on §3's single FIFO.
var rows = map[string]flowRow{
	// §5.1: one Copa flow receives RTT samples 1 ms below the true 60 ms
	// floor. The paper measured 8 Mbit/s — a 1 ms measurement error
	// costing ~93% of the link.
	"copa-single": {
		id:    "T5.1a",
		desc:  "Copa single flow, 120 Mbit/s, Rm=60ms, one 59ms-RTT packet",
		claim: "throughput 8 Mbit/s (vs 120 available)",
		spec:  PopulationSpec{Flows: copaPoisoned, RateMbps: 120, Duration: 60 * time.Second},
		names: []string{"copa"},
		mbps:  []string{"throughput_mbps"}, totals: []string{"utilization"},
	},
	// §5.1's two-flow variant: only one flow gets the dip. The paper
	// measured 8.8 vs 95 Mbit/s.
	"copa-two": {
		id:    "T5.1b",
		desc:  "Copa two flows, 120 Mbit/s, Rm=60ms, 59ms dip on one flow",
		claim: "8.8 vs 95 Mbit/s (ratio ~10.8)",
		spec:  PopulationSpec{Flows: copaPoisoned + ";" + copaClean, RateMbps: 120, Duration: 60 * time.Second},
		names: []string{"poisoned", "clean"},
		mbps:  []string{"poisoned_mbps", "clean_mbps"}, totals: []string{"ratio"},
	},
	// §5.2: two BBR flows with Rm of 40 and 80 ms. The paper ran this on
	// Mahimahi, where "their interaction and natural OS jitter was enough
	// to push them into cwnd-limited mode"; the emulator is
	// deterministic, so the OS jitter is an explicit bounded uniform
	// delay (≤ 2 ms) on each flow's path, the substitution DESIGN.md
	// documents. The paper measured 8.3 vs 107 Mbit/s.
	"bbr-two": {
		id:    "T5.2",
		desc:  "BBR two flows, 120 Mbit/s, Rm 40/80ms, ~2ms jitter, 60s",
		claim: "8.3 vs 107 Mbit/s (order-of-magnitude; small-RTT flow starves)",
		spec: PopulationSpec{
			Flows:    "bbr:rm=40ms,jitter=uniform:2ms;bbr:rm=80ms,jitter=uniform:2ms",
			RateMbps: 120, Duration: 60 * time.Second, seedStride: bbrStride,
		},
		names: []string{"rtt40", "rtt80"},
		mbps:  []string{"rtt40_mbps", "rtt80_mbps"}, totals: []string{"ratio"},
	},
	// §5.3: one Vivace flow's ACKs are released only at multiples of
	// 60 ms, "preventing finer delay measurement". The paper measured 9.9
	// vs 99.4 Mbit/s.
	"vivace-ackagg": {
		id:    "T5.3",
		desc:  "Vivace two flows, 120 Mbit/s, Rm=60ms, one flow's ACKs at 60ms multiples",
		claim: "9.9 vs 99.4 Mbit/s (ratio ~10)",
		spec: PopulationSpec{
			Flows:    "vivace:rm=60ms,ackagg=60ms;vivace:rm=60ms",
			RateMbps: 120, Duration: 60 * time.Second, seedStride: vivaceStride,
		},
		names: []string{"quantized", "clean"},
		mbps:  []string{"quantized_mbps", "clean_mbps"}, totals: []string{"ratio"},
	},
	// §5.4's headline case: one Allegro flow sees 2% random loss. The
	// paper measured 10.3 vs 99.1 Mbit/s, although Allegro is "supposed
	// to be resilient to up to 5% loss".
	"allegro-loss": {
		id:    "T5.4a",
		desc:  "Allegro two flows, 120 Mbit/s, Rm=40ms, 1 BDP buffer, 2% loss on one",
		claim: "10.3 vs 99.1 Mbit/s (ratio ~10)",
		spec: PopulationSpec{
			Flows:    "allegro:rm=40ms,loss=0.02;allegro:rm=40ms",
			RateMbps: 120, BufferPkts: allegroBufferPkts, Duration: 60 * time.Second, seedStride: allegroStride,
		},
		names: []string{"lossy", "clean"},
		mbps:  []string{"lossy_mbps", "clean_mbps"}, totals: []string{"ratio"},
	},
	// §5.4 extended beyond the paper: the same two-Allegro path, but the
	// lossy flow's ~2% average loss arrives in Gilbert–Elliott bursts
	// (bad-state episodes of ~5 packets dropping half their packets)
	// instead of independently. The chain's stationary loss,
	// g2b/(g2b+b2g) × dropBad ≈ 1.9%, matches T5.4a's Bernoulli rate, so
	// burstiness is the only variable. The bursty flow still loses, but
	// by far less than under Bernoulli loss (EXPERIMENTS.md, T5.4d).
	"allegro-burst": {
		id:    "T5.4d",
		desc:  "Allegro two flows, Gilbert–Elliott bursty loss (~2% mean) on one (extension)",
		claim: "no paper row; T5.4a analogue — starvation should persist under bursty loss at matched mean rate",
		spec: PopulationSpec{
			Flows:    "allegro:rm=40ms,ge=0.008/0.2/0.5;allegro:rm=40ms",
			RateMbps: 120, BufferPkts: allegroBufferPkts, Duration: 60 * time.Second, seedStride: allegroStride,
		},
		names: []string{"bursty", "clean"},
		mbps:  []string{"bursty_mbps", "clean_mbps"}, totals: []string{"ratio"},
	},
	// §5.4's control: with both flows at 2% loss "they shared the link
	// fairly and efficiently".
	"allegro-both": {
		id:    "T5.4b",
		desc:  "Allegro two flows, both at 2% random loss (control)",
		claim: "fair and efficient sharing",
		spec: PopulationSpec{
			Flows:    "allegro*2:rm=40ms,loss=0.02",
			RateMbps: 120, BufferPkts: allegroBufferPkts, Duration: 60 * time.Second, seedStride: allegroStride,
		},
		names: []string{"lossy0", "lossy1"},
		mbps:  []string{"flow0_mbps", "flow1_mbps"}, totals: []string{"ratio", "jain", "utilization"},
	},
	// §5.4's second control: a single flow with 2% loss "was able to
	// fully utilize the link capacity".
	"allegro-single": {
		id:    "T5.4c",
		desc:  "Allegro single flow with 2% random loss (control)",
		claim: "full link utilization",
		spec: PopulationSpec{
			Flows:    "allegro:rm=40ms,loss=0.02",
			RateMbps: 120, BufferPkts: allegroBufferPkts, Duration: 60 * time.Second, seedStride: allegroStride,
		},
		names: []string{"lossy"},
		mbps:  []string{"throughput_mbps"}, totals: []string{"utilization"},
	},
	// The left panel of Fig. 7: 6 Mbit/s, 120 ms, a 60-packet buffer.
	"fig7-reno": {
		id:    "F7-reno",
		desc:  "Reno two flows, 6 Mbit/s, Rm=120ms, 60-pkt buffer, delayed ACKs ×4 on one",
		claim: "ratio 2.7×, bounded (no starvation)",
		spec:  PopulationSpec{Flows: fig7Flows("reno"), RateMbps: 6, BufferPkts: 60, Duration: 200 * time.Second},
		names: []string{"delacked", "perpacket"},
		mbps:  []string{"delacked_mbps", "perpacket_mbps"}, totals: []string{"ratio", "utilization"},
	},
	// The right panel of Fig. 7.
	"fig7-cubic": {
		id:    "F7-cubic",
		desc:  "Cubic two flows, 6 Mbit/s, Rm=120ms, 60-pkt buffer, delayed ACKs ×4 on one",
		claim: "ratio 3.2×, bounded (no starvation)",
		spec:  PopulationSpec{Flows: fig7Flows("cubic"), RateMbps: 6, BufferPkts: 60, Duration: 200 * time.Second},
		names: []string{"delacked", "perpacket"},
		mbps:  []string{"delacked_mbps", "perpacket_mbps"}, totals: []string{"ratio", "utilization"},
	},
	// The contrast case for X-A1: Vegas flows in the same setting starve,
	// because Vegas maps its whole rate range into a delay band smaller
	// than the jitter. The 10 ms hold (a step) switches on at t = 10 s,
	// after the flow has learned its true minimum RTT.
	"vegas-jitter": {
		id:    "X-A1v",
		desc:  "Vegas two flows in the X-A1 setting (persistent 10ms jitter on one)",
		claim: "starves: Vegas cannot distinguish the jitter from queueing",
		spec:  PopulationSpec{Flows: "vegas:rm=50ms,jitter=step:10ms/10s;vegas:rm=50ms", RateMbps: 100, Duration: 120 * time.Second},
		names: []string{"jittered", "clean"},
		mbps:  []string{"jittered_mbps", "clean_mbps"}, totals: []string{"ratio"},
	},
	// The minimal sanity scenario: on a clean path, two Vegas flows share
	// fairly, the baseline every starvation scenario perturbs.
	"quickstart-vegas": {
		id:    "quickstart",
		desc:  "Two Vegas flows, 48 Mbit/s, Rm=80ms, clean path, staggered start",
		claim: "fair sharing on an ideal path (the baseline the theorems perturb)",
		spec:  PopulationSpec{Flows: "vegas:rm=80ms;vegas:rm=80ms,start=5s", RateMbps: 48, Duration: 60 * time.Second},
		names: []string{"flow0", "flow1"},
		mbps:  []string{"flow0_mbps", "flow1_mbps"}, totals: []string{"ratio", "jain", "utilization"},
	},

	// Population rows: the paper proves starvation pairwise (two flows,
	// Theorem 1); these scale the same machinery to N-flow populations —
	// mixed CCAs, heterogeneous RTTs, multi-hop topologies — and report
	// the population statistics.
	"pop-mixed": {
		id:   "P6.1",
		desc: "24-flow mixed population (vegas/reno/copa) on one 48 Mbit/s bottleneck",
		claim: "extension beyond the paper: Theorem 1's pairwise starvation, " +
			"measured as a population starved-fraction across CCA cohorts",
		spec: PopulationSpec{
			Flows:    "vegas*8:stagger=50ms;reno*8:stagger=50ms;copa*8:stagger=50ms",
			Topology: "single", RateMbps: 48, BufferPkts: 128, Duration: 12 * time.Second,
		},
	},
	"pop-rtt": {
		id:   "P6.2",
		desc: "24 reno flows in 20/80/160 ms RTT cohorts on one 48 Mbit/s bottleneck",
		claim: "extension beyond the paper: RTT-unfair loss-based control; " +
			"long-RTT cohorts hold shares far below fair and starve first",
		spec: PopulationSpec{
			Flows: "reno*8:rm=20ms,cohort=rtt20,stagger=50ms;" +
				"reno*8:rm=80ms,cohort=rtt80,stagger=50ms;" +
				"reno*8:rm=160ms,cohort=rtt160,stagger=50ms",
			Topology: "single", RateMbps: 48, BufferPkts: 128, Duration: 12 * time.Second,
		},
	},
	"pop-parkinglot": {
		id:   "P6.3",
		desc: "parking-lot: 6 long vegas flows over 3 hops vs 6 one-hop reno cross flows",
		claim: "extension beyond the paper: multi-bottleneck chain; long flows " +
			"pay every hop's queue and lose to single-hop cross traffic",
		spec: PopulationSpec{
			Flows: "vegas*6:cohort=long,stagger=50ms;" +
				"reno*2:path=0,cohort=cross,stagger=50ms;" +
				"reno*2:path=1,cohort=cross,stagger=50ms;" +
				"reno*2:path=2,cohort=cross,stagger=50ms",
			Topology: "parkinglot:3", RateMbps: 24, BufferPkts: 64, Duration: 12 * time.Second,
		},
	},
	"pop-fanin": {
		id:   "P6.4",
		desc: "fan-in: 16 flows (vegas/reno) over 4 access links into one 32 Mbit/s uplink",
		claim: "extension beyond the paper: contention concentrates at the shared " +
			"uplink; with plain drop-tail buffers the fan-in stays near-fair — " +
			"topology alone does not reproduce the paper's jitter-driven starvation",
		spec: PopulationSpec{
			Flows:    "vegas*8:stagger=50ms;reno*8:stagger=50ms",
			Topology: "fanin:4", RateMbps: 32, BufferPkts: 96, Duration: 12 * time.Second,
		},
	},
	// The large-N smoke: 500 flows across four CCA cohorts. It exercises
	// population scale (event pool, obs aggregation, population
	// statistics) end to end; it publishes no numbers.
	"pop-mixed-500": {
		id:   "P6.5",
		desc: "500-flow mixed population (vegas/reno/copa/bbr) on one 250 Mbit/s bottleneck",
		claim: "extension beyond the paper: population-scale smoke; starved " +
			"fraction and share quantiles at N=500",
		spec: PopulationSpec{
			Flows: "vegas*125:stagger=8ms;reno*125:stagger=8ms;" +
				"copa*125:stagger=8ms;bbr*125:stagger=8ms",
			Topology: "single", RateMbps: 250, BufferPkts: 512, Duration: 8 * time.Second,
		},
	},
}
