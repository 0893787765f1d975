package main

import "starvation/internal/cca"

// metric is one reported value. Samples, when present, are the raw
// observations the value was derived from (the report prints their count,
// median and quartiles); the contract line carries only Value and Unit.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"-"`
	// Note labels how the value came about when it is not a direct
	// measurement on the workload: "computed" (counts × isolated cost),
	// "ledger" (measured by the traced run's fixed ledger, not on the
	// named workload), "n/a" (the layer is not observable on this workload).
	Note string `json:"-"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, each reported on
// every workload with tracing off. BENCHMARK.json repeats this list; the
// smoke test fails when the two drift apart.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"batch_ms_p50", "ms", "lower", 0.25},
}

// paperIDs are the paper_pairs scenarios: every scenario.Registry entry
// that is not a population run, in sorted order.
var paperIDs = []string{
	"algo1-ablation", "algo1-fair", "allegro-both", "allegro-burst",
	"allegro-loss", "allegro-single", "bbr-two", "copa-single", "copa-two",
	"ecn-fairness", "fig7-cubic", "fig7-reno", "quickstart-vegas",
	"vegas-jitter", "vivace-ackagg",
}

// perLayer lists the traced run's metrics, layer by layer.
func perLayer() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "ns", "sim.schedule_fire_ns", "sim.deep_queue_ns", "sim.cancel_ns")
	add("lower", "us", "sim.reset_us")
	add("lower", "count", "sim.events_fired", "sim.events_scheduled")
	add("lower", "ns", "sim.ns_per_event")
	add("lower", "share", "sim.queue_share")

	add("lower", "ns", "netem.link_pkt_ns", "netem.link_drop_ns", "netem.delaybox_pkt_ns",
		"netem.ackbox_ack_ns", "netem.lossgate_pkt_ns", "netem.ge_pkt_ns",
		"netem.reorder_pkt_ns", "netem.dup_pkt_ns", "netem.jitter_delay_ns")
	add("lower", "count", "netem.pkts_enqueued", "netem.pkts_dropped")
	add("higher", "count", "netem.pkts_delivered")
	add("lower", "share", "netem.jitter_busy_share")

	add("lower", "ns", "endpoint.loop_pkt_ns", "endpoint.lossy_loop_pkt_ns")
	add("lower", "count", "endpoint.acks_received", "endpoint.retransmits")
	add("lower", "ratio", "endpoint.retx_ratio")
	add("lower", "count", "endpoint.cwnd_updates")

	for _, n := range cca.Names() { // sorted
		add("lower", "ns", "cca."+n+".on_ack_ns")
	}
	add("lower", "count", "cca.on_ack_calls", "cca.on_loss_calls", "cca.on_tick_calls", "cca.on_send_calls")
	add("lower", "share", "cca.busy_share")

	add("lower", "ns", "obs.registry_emit_ns", "obs.jsonl_emit_ns", "obs.sampler_emit_ns", "obs.detector_observe_ns")
	add("lower", "ratio", "obs.probe_overhead_ratio", "obs.telemetry_overhead_ratio")
	add("lower", "count", "obs.episodes")

	add("lower", "ns", "trace.add_ns")
	add("lower", "us", "trace.clone_us")
	add("lower", "ratio", "guard.overhead_ratio")
	add("lower", "us", "metrics.population_us.n500")

	add("lower", "us", "network.build_us.pair", "network.build_us.pop500",
		"network.reset_us.pair", "network.reset_us.pop500")
	add("higher", "ratio", "network.session_speedup")
	add("lower", "allocs", "network.allocs_per_run")
	add("lower", "KB", "network.alloc_kb_per_run")
	add("lower", "share", "network.run_busy_share")
	add("lower", "us", "network.result_string_us.pop500")

	add("lower", "us", "scenario.spec_config_us", "scenario.spec_validate_us")
	add("lower", "ns", "scenario.spec_key_ns")
	add("lower", "share", "scenario.parse_busy_share")
	for _, id := range paperIDs {
		add("lower", "ms", "scenario."+id+".ms_per_emu_s")
	}

	add("lower", "us", "core.us_per_flowsec.n10", "core.us_per_flowsec.n100", "core.us_per_flowsec.n1000", "core.render_us")
	add("higher", "1/s", "core.flowsec_per_s")

	add("lower", "ns", "runner.fingerprint_ns")
	add("lower", "us", "runner.cache_put_us", "runner.cache_get_us", "runner.manifest_record_us", "runner.pool_job_overhead_us")
	add("higher", "ratio", "runner.jobs_scaling")
	add("higher", "count", "runner.cache_hits")
	add("lower", "count", "runner.executed")

	add("lower", "us", "service.decode_us")
	add("lower", "ns", "service.sched_item_ns", "service.hub_publish_ns")
	add("lower", "ms", "service.batch_ms_p95", "service.submit_ms_p50", "service.first_event_ms_p50", "service.stream_ms_p50",
		"service.artifact_get_ms_p50", "service.overhead_ms_per_job")
	add("lower", "count", "service.artifact_404_retries", "service.rejected_429")

	add("lower", "s", "figures.F3_s", "figures.T5_s")
	add("lower", "ms", "figures.warm_ms")
	add("higher", "ratio", "figures.jobs_speedup")

	add("lower", "MB", "proc.peak_rss_mb", "proc.alloc_mb")
	add("lower", "share", "proc.gc_cpu_share")
	add("lower", "s", "proc.build_s")

	add("lower", "ratio", "bench.trace_overhead_ratio")
	add("lower", "share", "bench.unattributed_share")
	return out
}

// metricSet is what one run reports, keyed by metric name.
type metricSet map[string]metric

func (ms metricSet) put(name, unit string, v float64) { ms[name] = metric{Value: v, Unit: unit} }

func (ms metricSet) putNote(name, unit string, v float64, note string) {
	ms[name] = metric{Value: v, Unit: unit, Note: note}
}

func (ms metricSet) putSamples(name, unit string, v float64, samples []float64) {
	ms[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// val reads a metric back (0 when absent); later ledger entries are
// products of earlier ones.
func (ms metricSet) val(name string) float64 { return ms[name].Value }
