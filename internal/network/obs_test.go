package network

import (
	"bytes"
	"testing"
	"time"

	"starvation/internal/cca/vegas"
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
			Marker:      thresholdMarker{bytes: 15 * 1500},
			Seed:        2,
			Probe:       probe,
		},
		FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 20 * time.Millisecond},
		FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond, LossProb: 0.005},
	)
	return n.Run(10 * time.Second)
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
