package network

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"starvation/internal/obs"
	"starvation/internal/obs/detect"
	"starvation/internal/obs/timeseries"
	"starvation/internal/packet"
	"starvation/internal/units"
)

// TelemetryConfig enables the flight recorder: windowed per-flow series
// (internal/obs/timeseries), the online starvation detector
// (internal/obs/detect), run-phase spans, and a self-telemetry sampler.
// Like Probe and Guard it is observation-only — the recorder schedules no
// simulator events (phase and self samples piggyback on the existing
// trace-sampling tick) and draws no randomness, so fixed-seed
// realizations are bit-identical with the recorder on or off
// (TestGoldenParityTelemetry pins this).
//
// The sampler stride is the trace sampling interval (sampleEvery), so
// every window is guaranteed to close on the next rate sample even for a
// flow that never delivers a byte; each flow's ring is sized from the run
// horizon at RunWindow time (the trace.Series.Reserve idiom), and the
// detector keeps its default two-window hysteresis on both edges.
type TelemetryConfig struct {
	// Epsilon is the starvation threshold as a fraction of fair share
	// (<= 0 selects metrics.DefaultStarvationEpsilon, matching the
	// population statistics).
	Epsilon float64
}

// Phase is one run-phase span of a telemetry result.
type Phase struct {
	Name     string        `json:"name"`
	From, To time.Duration `json:"-"`
	FromNs   int64         `json:"from_ns"`
	ToNs     int64         `json:"to_ns"`
}

// FlowTelemetry summarizes one flow's windowed series.
type FlowTelemetry struct {
	Name   string `json:"name"`
	Cohort string `json:"cohort,omitempty"`
	// Windows is the retained ring, oldest first; WindowsClosed counts
	// every closed window and Evicted the ones the ring aged out, so a
	// truncated series is visible, not silent.
	Windows       []timeseries.Window `json:"windows"`
	WindowsClosed int64               `json:"windows_closed"`
	Evicted       int64               `json:"evicted"`
	// LastRateBps is the delivery rate of the last closed window.
	LastRateBps float64 `json:"last_rate_bps"`
	// MinRTT estimates propagation delay; SRTT is the last window's mean
	// RTT sample and QueueDelay their difference (smoothed queueing +
	// jitter delay).
	MinRTT     time.Duration `json:"min_rtt_ns"`
	SRTT       time.Duration `json:"srtt_ns"`
	QueueDelay time.Duration `json:"queue_delay_ns"`
	// Episodes and StarvedTime summarize the flow's detector verdicts.
	Episodes    int           `json:"episodes"`
	StarvedTime time.Duration `json:"starved_time_ns"`
}

// SelfStats is the recorder's telemetry about the run itself. Queue
// depths are sampled at the trace tick; memory counters come from one
// runtime.ReadMemStats at the end of the run — off the hot path.
type SelfStats struct {
	// Ticks counts self-samples (one per trace-sampling interval).
	Ticks int64 `json:"ticks"`
	// SimQueueMax/SimQueueLast gauge the event-queue depth: lane heads and
	// timers, not queued packets (see package sim).
	SimQueueMax  int `json:"sim_queue_max"`
	SimQueueLast int `json:"sim_queue_last"`
	// HeapAllocBytes/TotalAllocs/NumGC are process-wide memory counters
	// at collection time.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	TotalAllocs    uint64 `json:"total_allocs"`
	NumGC          uint32 `json:"num_gc"`
}

// TelemetryResult is the flight recorder's output, attached to
// Result.Telemetry when Config.Telemetry was set.
type TelemetryResult struct {
	Window    time.Duration    `json:"window_ns"`
	Epsilon   float64          `json:"epsilon"`
	FairShare float64          `json:"fair_share_bps"`
	Phases    []Phase          `json:"phases"`
	Flows     []FlowTelemetry  `json:"flows"`
	Episodes  []detect.Episode `json:"episodes"`
	Self      SelfStats        `json:"self"`
}

// telemetryRecorder glues the sampler and detector into one probe and
// owns the phase/self samplers. It is wired into the probe chain at
// construction; horizon-dependent sizing happens in begin().
type telemetryRecorder struct {
	sampler *timeseries.Sampler
	det     *detect.Detector

	// phase state, driven by tick() from the trace sampler.
	warmupEnd time.Duration
	horizon   time.Duration
	phase     int
	phases    []Phase
	// downstream receives derived events (phase markers; the detector
	// holds its own reference for episode events).
	downstream obs.Probe

	self SelfStats
}

// newTelemetryRecorder builds the recorder for the given specs. fair is
// the per-flow fair share in bit/s (bottleneck capacity / N).
func newTelemetryRecorder(tc *TelemetryConfig, fair float64, downstream obs.Probe, specs []FlowSpec) *telemetryRecorder {
	r := &telemetryRecorder{phase: -1, downstream: downstream}
	r.det = detect.New(detect.Config{
		FairShare: fair,
		Epsilon:   tc.Epsilon,
		Probe:     downstream,
	}, len(specs))
	for i, spec := range specs {
		r.det.Label(packet.FlowID(i), spec.Name, spec.Cohort)
	}
	r.sampler = timeseries.NewSampler(timeseries.Config{
		Stride:   sampleEvery,
		OnWindow: r.det.Observe,
	}, len(specs))
	return r
}

// Emit implements obs.Probe by folding into the windowed sampler.
func (r *telemetryRecorder) Emit(e obs.Event) { r.sampler.Emit(e) }

// begin pre-sizes the rings from the horizon and records the phase plan.
// Must run before the first event of the run.
func (r *telemetryRecorder) begin(d, from, to time.Duration) {
	r.sampler.Reserve(d)
	r.warmupEnd = from
	r.horizon = d
	_ = to
}

// tick advances the phase machine and self-telemetry. Called from the
// network's trace-sampling callback — already scheduled on every run —
// so telemetry adds zero simulator events.
func (r *telemetryRecorder) tick(now time.Duration, simQueue int) {
	r.self.Ticks++
	r.self.SimQueueLast = simQueue
	if simQueue > r.self.SimQueueMax {
		r.self.SimQueueMax = simQueue
	}
	if r.phase < obs.PhaseSetup {
		r.enterPhase(obs.PhaseSetup, now)
		r.enterPhase(obs.PhaseWarmup, now)
	}
	if r.phase < obs.PhaseMeasure && now >= r.warmupEnd {
		r.enterPhase(obs.PhaseMeasure, now)
	}
}

func (r *telemetryRecorder) enterPhase(p int, now time.Duration) {
	if n := len(r.phases); n > 0 {
		r.phases[n-1].To = now
	}
	r.phases = append(r.phases, Phase{Name: obs.PhaseName(p), From: now})
	r.phase = p
	if r.downstream != nil {
		r.downstream.Emit(obs.Event{Type: obs.EvPhase, At: now, Flow: -1,
			Seq: int64(p), Queue: -1})
	}
}

// finish closes partial windows and open episodes at the horizon and
// assembles the result. The single ReadMemStats lives here, after the
// last simulated event.
func (r *telemetryRecorder) finish(d time.Duration, specs []*Flow) *TelemetryResult {
	r.sampler.Flush(d)
	r.det.Flush(d)
	if n := len(r.phases); n > 0 {
		r.phases[n-1].To = d
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.self.HeapAllocBytes = ms.HeapAlloc
	r.self.TotalAllocs = ms.Mallocs
	r.self.NumGC = ms.NumGC

	tr := &TelemetryResult{
		Window:    sampleEvery,
		Epsilon:   r.det.Epsilon(),
		FairShare: r.det.FairShare(),
		Episodes:  r.det.Episodes(),
		Self:      r.self,
	}
	for i := range r.phases {
		r.phases[i].FromNs = int64(r.phases[i].From)
		r.phases[i].ToNs = int64(r.phases[i].To)
	}
	tr.Phases = r.phases
	for _, f := range specs {
		ft := FlowTelemetry{Name: f.Spec.Name, Cohort: f.Spec.Cohort}
		if fs := r.sampler.Flow(f.ID); fs != nil {
			ft.Windows = fs.Windows()
			ft.WindowsClosed = fs.Closed()
			ft.Evicted = fs.Evicted
			ft.MinRTT = fs.MinRTT()
			if n := fs.Len(); n > 0 {
				last := fs.At(n - 1)
				ft.LastRateBps = last.RateBps(sampleEvery)
				ft.SRTT = last.MeanRTT()
				if ft.SRTT > ft.MinRTT && ft.MinRTT > 0 {
					ft.QueueDelay = ft.SRTT - ft.MinRTT
				}
			}
		}
		for _, ep := range tr.Episodes {
			if ep.Flow == f.ID {
				ft.Episodes++
				ft.StarvedTime += ep.Duration()
			}
		}
		tr.Flows = append(tr.Flows, ft)
	}
	return tr
}

// WriteTelemetryPrometheus renders a TelemetryResult in the Prometheus
// text exposition format, extending the counter registry's export with
// episode and series metrics (all HELP/TYPE-annotated; the exposition
// golden test pins the format).
func WriteTelemetryPrometheus(w io.Writer, tr *TelemetryResult) error {
	type metric struct {
		name, help, typ string
		value           func(*FlowTelemetry) float64
	}
	perFlow := []metric{
		{"starvesim_starvation_episodes_total", "Starvation episodes the online detector sealed for the flow.", "counter",
			func(f *FlowTelemetry) float64 { return float64(f.Episodes) }},
		{"starvesim_starved_seconds_total", "Virtual time the flow spent inside starvation episodes.", "counter",
			func(f *FlowTelemetry) float64 { return f.StarvedTime.Seconds() }},
		{"starvesim_telemetry_windows_closed_total", "Sampler windows closed for the flow.", "counter",
			func(f *FlowTelemetry) float64 { return float64(f.WindowsClosed) }},
		{"starvesim_telemetry_windows_evicted_total", "Sampler windows aged out of the flow's ring.", "counter",
			func(f *FlowTelemetry) float64 { return float64(f.Evicted) }},
		{"starvesim_flow_delivery_rate_bps", "Delivery (goodput) rate of the flow's last closed window.", "gauge",
			func(f *FlowTelemetry) float64 { return f.LastRateBps }},
		{"starvesim_flow_srtt_seconds", "Mean RTT sample of the flow's last closed window.", "gauge",
			func(f *FlowTelemetry) float64 { return f.SRTT.Seconds() }},
		{"starvesim_flow_queue_delay_seconds", "Smoothed RTT in excess of the flow's minimum RTT.", "gauge",
			func(f *FlowTelemetry) float64 { return f.QueueDelay.Seconds() }},
	}
	for _, m := range perFlow {
		if err := promHeader(w, m.name, m.help, m.typ); err != nil {
			return err
		}
		for i := range tr.Flows {
			f := &tr.Flows[i]
			name := f.Name
			if name == "" {
				name = fmt.Sprintf("flow%d", i)
			}
			if _, err := fmt.Fprintf(w, "%s{flow=%q} %s\n", m.name, name, promFloat(m.value(f))); err != nil {
				return err
			}
		}
	}
	globals := []struct {
		name, help, typ string
		value           float64
	}{
		{"starvesim_telemetry_window_seconds", "Sampler window stride.", "gauge", tr.Window.Seconds()},
		{"starvesim_telemetry_epsilon", "Starvation threshold as a fraction of fair share.", "gauge", tr.Epsilon},
		{"starvesim_fair_share_bps", "Per-flow fair share of the bottleneck.", "gauge", tr.FairShare},
		{"starvesim_self_ticks_total", "Self-telemetry samples taken.", "counter", float64(tr.Self.Ticks)},
		{"starvesim_self_sim_queue_max", "High-water mark of the simulator's pending events: FIFO lane heads and timers, not queued packets.", "gauge", float64(tr.Self.SimQueueMax)},
		{"starvesim_self_heap_alloc_bytes", "Live heap at end of run (runtime.ReadMemStats, off the hot path).", "gauge", float64(tr.Self.HeapAllocBytes)},
	}
	for _, g := range globals {
		if err := promHeader(w, g.name, g.help, g.typ); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", g.name, promFloat(g.value)); err != nil {
			return err
		}
	}
	return nil
}

func promHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// promFloat renders a value the exposition format accepts (no exponent
// surprises for integers, fixed precision otherwise).
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// telemetryString renders the per-flow episode timeline table appended to
// Result.String() when the flight recorder ran.
func (tr *TelemetryResult) String() string {
	out := fmt.Sprintf("telemetry: window %v  eps %.2g  fair %v  episodes %d\n",
		tr.Window, tr.Epsilon, units.Rate(tr.FairShare), len(tr.Episodes))
	if len(tr.Episodes) == 0 {
		return out
	}
	out += fmt.Sprintf("%-12s %10s %10s %10s %8s %9s %5s %6s\n",
		"flow", "onset", "end", "dur", "windows", "minshare", "sev", "fault")
	for i := range tr.Episodes {
		ep := &tr.Episodes[i]
		fault := "-"
		if ep.FaultAtOnset {
			fault = "burst"
		}
		end := ep.End.String()
		if ep.OpenAtEnd {
			end += "+"
		}
		out += fmt.Sprintf("%-12s %10v %10s %10v %8d %9.3f %5.2f %6s\n",
			ep.Name, ep.Onset, end, ep.Duration(), ep.Windows, ep.MinShare, ep.Severity, fault)
	}
	return out
}
