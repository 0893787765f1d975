package network

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/metrics"
	"starvation/internal/obs"
	"starvation/internal/units"
)

// runWithTelemetry runs a two-flow scenario with the flight recorder on;
// starve cripples flow 1 with heavy random loss so the detector has an
// episode to find.
func runWithTelemetry(probe obs.Probe, starve bool) *Result {
	lossProb := 0.0
	if starve {
		lossProb = 0.6
	}
	n := New(
		Config{
			Rate:        units.Mbps(20),
			BufferBytes: 20 * 1500,
			Seed:        2,
			Probe:       probe,
			Telemetry:   &TelemetryConfig{},
		},
		FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 20 * time.Millisecond},
		FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond, LossProb: lossProb},
	)
	return n.Run(10 * time.Second)
}

func TestTelemetryResultPopulated(t *testing.T) {
	res := runWithTelemetry(nil, false)
	tr := res.Telemetry
	if tr == nil {
		t.Fatal("Result.Telemetry is nil with Telemetry configured")
	}
	if tr.Window != sampleEvery {
		t.Errorf("window = %v, want the trace-sampling interval", tr.Window)
	}
	if tr.Epsilon != metrics.DefaultStarvationEpsilon {
		t.Errorf("epsilon = %g, want population default", tr.Epsilon)
	}
	if want := float64(units.Mbps(20)) / 2; tr.FairShare != want {
		t.Errorf("fair share = %g, want %g", tr.FairShare, want)
	}

	// Phase spans: setup -> warmup -> measure, contiguous, measure opening
	// at the steady-window start (Run uses [d/2, d)).
	if len(tr.Phases) != 3 {
		t.Fatalf("phases = %+v, want 3 spans", tr.Phases)
	}
	for i, want := range []string{"setup", "warmup", "measure"} {
		if tr.Phases[i].Name != want {
			t.Errorf("phase %d = %q, want %q", i, tr.Phases[i].Name, want)
		}
	}
	for i := 1; i < len(tr.Phases); i++ {
		if tr.Phases[i].From != tr.Phases[i-1].To {
			t.Errorf("phase %d not contiguous: from %v, prev to %v",
				i, tr.Phases[i].From, tr.Phases[i-1].To)
		}
	}
	if m := tr.Phases[2]; m.From < 5*time.Second || m.From > 5*time.Second+tr.Window ||
		m.To != 10*time.Second {
		t.Errorf("measure span = [%v, %v), want [5s (+<=1 window), 10s)", m.From, m.To)
	}

	// Per-flow series: both flows healthy, windows closed over the run.
	if len(tr.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(tr.Flows))
	}
	for i := range tr.Flows {
		ft := &tr.Flows[i]
		if ft.WindowsClosed < 90 {
			t.Errorf("flow %d closed %d windows, want ~100", i, ft.WindowsClosed)
		}
		if ft.LastRateBps <= 0 {
			t.Errorf("flow %d last rate = %g, want > 0", i, ft.LastRateBps)
		}
		if ft.MinRTT <= 0 || ft.SRTT < ft.MinRTT {
			t.Errorf("flow %d rtt: min %v srtt %v", i, ft.MinRTT, ft.SRTT)
		}
		if ft.Episodes != 0 {
			t.Errorf("healthy flow %d has %d episodes", i, ft.Episodes)
		}
	}
	if tr.Flows[0].Name != "flow0" || tr.Flows[1].Name != "flow1" {
		t.Errorf("names = %q/%q, want normalized flow0/flow1",
			tr.Flows[0].Name, tr.Flows[1].Name)
	}

	// Self-telemetry rode the sampling tick.
	if tr.Self.Ticks < 90 || tr.Self.SimQueueMax <= 0 {
		t.Errorf("self stats = %+v", tr.Self)
	}

	// The episode table is appended to the result rendering.
	if !strings.Contains(res.String(), "telemetry: window") {
		t.Error("Result.String() missing telemetry section")
	}
}

func TestTelemetryDetectsStarvedFlow(t *testing.T) {
	res := runWithTelemetry(nil, true)
	tr := res.Telemetry
	if len(tr.Episodes) == 0 {
		t.Fatal("no episodes detected for a 60%-loss flow")
	}
	for i := range tr.Episodes {
		ep := &tr.Episodes[i]
		if ep.Flow != 1 {
			t.Errorf("episode on healthy flow: %+v", ep)
		}
		if ep.MinShare >= tr.Epsilon || ep.Severity <= 0 {
			t.Errorf("episode share/severity out of range: %+v", ep)
		}
	}
	if tr.Flows[1].Episodes != len(tr.Episodes) || tr.Flows[1].StarvedTime <= 0 {
		t.Errorf("flow summary = %+v, want episode counts to reconcile", tr.Flows[1])
	}
	if !strings.Contains(res.String(), "flow1") {
		t.Error("episode table missing starved flow row")
	}

	// Fixed seed: the episode log is deterministic run to run.
	res2 := runWithTelemetry(nil, true)
	if !reflect.DeepEqual(tr.Episodes, res2.Telemetry.Episodes) {
		t.Error("episode logs differ across identical fixed-seed runs")
	}
}

// eventCounts is a probe that counts events by type.
type eventCounts map[obs.EventType]int

func (c eventCounts) Emit(e obs.Event) { c[e.Type]++ }

// TestTelemetryDerivedEventsStream asserts phase markers, RTT samples, and
// episode boundaries reach the user probe inline with lifecycle events.
func TestTelemetryDerivedEventsStream(t *testing.T) {
	counts := eventCounts{}
	res := runWithTelemetry(counts, true)
	if counts[obs.EvPhase] != 3 {
		t.Errorf("phase events = %d, want 3", counts[obs.EvPhase])
	}
	if counts[obs.EvRTTSample] == 0 {
		t.Error("no RTT samples in the stream")
	}
	if counts[obs.EvStarveOnset] != len(res.Telemetry.Episodes) {
		t.Errorf("onset events = %d, want %d (one per episode)",
			counts[obs.EvStarveOnset], len(res.Telemetry.Episodes))
	}
	// Every episode announces its end — at recovery, or at the horizon
	// when the final Flush seals it.
	if counts[obs.EvStarveEnd] != len(res.Telemetry.Episodes) {
		t.Errorf("end events = %d, want %d (one per episode)",
			counts[obs.EvStarveEnd], len(res.Telemetry.Episodes))
	}
}

// telemetryPromSample matches one sample line of the exposition format.
var telemetryPromSample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

func TestWriteTelemetryPrometheusFormat(t *testing.T) {
	res := runWithTelemetry(nil, true)
	var buf bytes.Buffer
	if err := WriteTelemetryPrometheus(&buf, res.Telemetry); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Exposition hygiene: every line is HELP, TYPE, or a well-formed
	// sample; every metric family carries exactly one HELP/TYPE pair.
	seenType := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 || (fields[3] != "counter" && fields[3] != "gauge") {
				t.Errorf("line %d: bad TYPE line %q", i+1, line)
			}
			if seenType[fields[2]] {
				t.Errorf("line %d: duplicate TYPE for %s", i+1, fields[2])
			}
			seenType[fields[2]] = true
		default:
			if !telemetryPromSample.MatchString(line) {
				t.Errorf("line %d: malformed sample %q", i+1, line)
			}
		}
	}
	for _, name := range []string{
		"starvesim_starvation_episodes_total",
		"starvesim_starved_seconds_total",
		"starvesim_telemetry_windows_closed_total",
		"starvesim_telemetry_windows_evicted_total",
		"starvesim_flow_delivery_rate_bps",
		"starvesim_flow_srtt_seconds",
		"starvesim_flow_queue_delay_seconds",
		"starvesim_telemetry_window_seconds",
		"starvesim_telemetry_epsilon",
		"starvesim_fair_share_bps",
		"starvesim_self_ticks_total",
		"starvesim_self_sim_queue_max",
	} {
		if !seenType[name] {
			t.Errorf("metric %s missing HELP/TYPE", name)
		}
	}
	if !strings.Contains(out, `starvesim_starvation_episodes_total{flow="flow1"} `) {
		t.Error("starved flow's episode counter missing")
	}
}
