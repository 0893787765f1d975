package network

import (
	"bytes"
	"testing"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/netem"
	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/units"
)

// runInstrumented runs a two-flow scenario that exercises every lifecycle
// event: a small drop-tail buffer (tail drops), a threshold marker (marks),
// and a random-loss gate on one flow (gate drops).
func runInstrumented(t *testing.T, probe obs.Probe) *Result {
	t.Helper()
	n := New(
		Config{
			Rate:        units.Mbps(20),
			BufferBytes: 20 * 1500,
			Marker:      netem.ThresholdMarker{Bytes: 15 * 1500},
			Seed:        2,
			Probe:       probe,
		},
		FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 20 * time.Millisecond},
		FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond, LossProb: 0.005},
	)
	return n.Run(10 * time.Second)
}

// TestJSONLRoundTripReconciles is the acceptance round trip: run with the
// JSONL exporter, re-read the file, and verify the event counts reconcile
// with the registry snapshot embedded in the Result — including the
// conservation law sent = delivered + dropped (+ packets still in flight
// when the horizon cut the run).
func TestJSONLRoundTripReconciles(t *testing.T) {
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	reg := obs.NewRegistry()
	res := runInstrumented(t, obs.Multi(reg, jw))
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events exported")
	}

	// Fold the re-read file through a fresh registry: the snapshot must
	// match what the live registry accumulated, field for field.
	reread := obs.NewRegistry()
	for _, e := range events {
		reread.Emit(e)
	}
	fromFile, live := reread.Snapshot(), reg.Snapshot()
	if len(fromFile.Flows) != 2 || len(live.Flows) != 2 {
		t.Fatalf("flow counts: file %d, live %d, want 2", len(fromFile.Flows), len(live.Flows))
	}
	for i := range live.Flows {
		if fromFile.Flows[i] != live.Flows[i] {
			t.Errorf("flow %d: file %+v != live %+v", i, fromFile.Flows[i], live.Flows[i])
		}
	}
	if fromFile.Global != live.Global {
		t.Errorf("global: file %+v != live %+v", fromFile.Global, live.Global)
	}

	// The event-derived registry must agree with the element-derived
	// snapshot in the Result on every event-visible field.
	for i := range res.Obs.Flows {
		want := res.Obs.Flows[i]
		got := fromFile.Flows[i]
		got.Name = want.Name // names travel via the emulator, not events
		if got != want {
			t.Errorf("flow %d: events %+v != snapshot %+v", i, got, want)
		}
	}
	g := fromFile.Global
	w := res.Obs.Global
	g.SimEventsScheduled, g.SimEventsFired = w.SimEventsScheduled, w.SimEventsFired
	if g != w {
		t.Errorf("global: events %+v != snapshot %+v", g, w)
	}

	// Conservation per flow: every sent segment is delivered, dropped, or
	// still inside the path when the horizon halted the run. The in-flight
	// remainder is bounded by what the path can hold (queue + one window).
	for i, f := range res.Obs.Flows {
		inFlight := f.PacketsSent - f.PacketsDelivered - f.PacketsDropped
		if inFlight < 0 {
			t.Errorf("flow %d: delivered+dropped (%d) exceeds sent (%d)",
				i, f.PacketsDelivered+f.PacketsDropped, f.PacketsSent)
		}
		if limit := int64(200); inFlight > limit {
			t.Errorf("flow %d: %d packets unaccounted for (> %d): lifecycle events are leaking",
				i, inFlight, limit)
		}
		if f.PacketsSent != f.PacketsEnqueued+f.PacketsDropped {
			t.Errorf("flow %d: sent %d != enqueued %d + dropped %d",
				i, f.PacketsSent, f.PacketsEnqueued, f.PacketsDropped)
		}
	}

	// The scenario must actually have exercised drops, marks, and ACKs,
	// otherwise the reconciliation above is vacuous.
	if w.PacketsDropped == 0 || w.PacketsMarked == 0 || w.AcksReceived == 0 {
		t.Errorf("degenerate scenario: global counters %+v", w)
	}
	// The fixed-seed realization: 26 tail drops plus 21 at flow 1's loss
	// gate, and 37 + 7 marks.
	if w.PacketsDropped != 47 || res.Dropped != 26 || w.PacketsMarked != 44 ||
		res.Obs.Flows[0].PacketsMarked != 37 || res.Obs.Flows[1].PacketsMarked != 7 {
		t.Errorf("dropped %d (link %d), marked %d (%d + %d); want 47 (26), 44 (37 + 7)",
			w.PacketsDropped, res.Dropped, w.PacketsMarked,
			res.Obs.Flows[0].PacketsMarked, res.Obs.Flows[1].PacketsMarked)
	}

	// Event stream timestamps are monotone per the simulator's clock.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("event %d at %v precedes event %d at %v",
				i, events[i].At, i-1, events[i-1].At)
		}
	}
}

// TestSnapshotWithoutProbe checks the registry snapshot is populated on
// every run even with instrumentation disabled.
func TestSnapshotWithoutProbe(t *testing.T) {
	res := runInstrumented(t, nil)
	if len(res.Obs.Flows) != 2 {
		t.Fatalf("snapshot flows = %d, want 2", len(res.Obs.Flows))
	}
	f0 := res.Obs.Flows[0]
	if f0.PacketsSent == 0 || f0.PacketsDelivered == 0 || f0.BytesAcked == 0 {
		t.Errorf("flow0 counters empty without probe: %+v", f0)
	}
	if f0.Name != "flow0" {
		t.Errorf("flow0 name = %q", f0.Name)
	}
	g := res.Obs.Global
	if g.SimEventsFired == 0 || g.SimEventsScheduled < g.SimEventsFired {
		t.Errorf("sim event gauges = %+v", g)
	}
	if g.MaxQueueBytes != int64(res.MaxQueue) {
		t.Errorf("MaxQueueBytes = %d, want %d", g.MaxQueueBytes, res.MaxQueue)
	}
	// Cwnd updates and rate samples are probe-driven: zero when disabled.
	if f0.CwndUpdates != 0 || f0.RateSamples != 0 {
		t.Errorf("probe-driven counters nonzero without probe: %+v", f0)
	}
}

// TestPrometheusSnapshotExport sanity-checks the text exposition of a real
// run's snapshot (format validation lives in the obs package tests).
func TestPrometheusSnapshotExport(t *testing.T) {
	res := runInstrumented(t, nil)
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, &res.Obs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`starvesim_packets_sent_total{flow="flow0"}`,
		`starvesim_packets_dropped_total{flow="flow1"}`,
		"starvesim_sim_events_fired_total",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSnapshotFlowGrowth covers out-of-order flow discovery in Snapshot.
func TestSnapshotFlowGrowth(t *testing.T) {
	var s obs.Snapshot
	s.Flow(packet.FlowID(2)).PacketsSent = 7
	if len(s.Flows) != 3 || s.Flows[2].PacketsSent != 7 {
		t.Errorf("snapshot growth: %+v", s.Flows)
	}
}
