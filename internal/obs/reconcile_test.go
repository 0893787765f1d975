package obs_test

import (
	"bytes"
	"testing"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/network"
	"starvation/internal/obs"
	"starvation/internal/units"
)

// thresholdMarker marks every packet arriving above a fixed queue depth.
type thresholdMarker struct{ bytes int }

func (t thresholdMarker) Mark(queuedBytes int) bool { return queuedBytes >= t.bytes }

// runInstrumented runs a two-flow network that exercises every lifecycle
// event: a small drop-tail buffer (tail drops), a threshold marker (marks),
// and a random-loss gate on one flow (gate drops).
func runInstrumented(probe obs.Probe) *network.Result {
	n := network.New(
		network.Config{
			Rate:        units.Mbps(20),
			BufferBytes: 20 * 1500,
			Marker:      thresholdMarker{bytes: 15 * 1500},
			Seed:        2,
			Probe:       probe,
		},
		network.FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 20 * time.Millisecond},
		network.FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond, LossProb: 0.005},
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
	res := runInstrumented(obs.Multi(reg, jw))
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

// TestRegistryCountsSendsOncePerPath pins that a packet crossing several
// bottlenecks counts as sent once: the links tag their events with the
// packet's hop, so an event-fed registry agrees with the element counters
// on a parking lot, where the long flow is enqueued at every hop.
func TestRegistryCountsSendsOncePerPath(t *testing.T) {
	reg := obs.NewRegistry()
	n := network.New(
		network.Config{
			Links: network.ParkingLot(2, units.Mbps(12), 30*1500, time.Millisecond),
			Seed:  4,
			Probe: reg,
		},
		network.FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 20 * time.Millisecond},
		network.FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 20 * time.Millisecond, Path: []int{1}},
	)
	res := n.Run(3 * time.Second)
	snap := reg.Snapshot()
	for i, want := range res.Obs.Flows {
		got := snap.Flows[i]
		if got.PacketsSent != want.PacketsSent || got.BytesSent != want.BytesSent {
			t.Errorf("flow %d: registry sent %d pkts/%d B, element counters %d/%d",
				i, got.PacketsSent, got.BytesSent, want.PacketsSent, want.BytesSent)
		}
	}
	if res.Obs.Flows[0].PacketsEnqueued <= res.Obs.Flows[0].PacketsSent {
		t.Errorf("long flow enqueued %d for %d sent: the path has one hop",
			res.Obs.Flows[0].PacketsEnqueued, res.Obs.Flows[0].PacketsSent)
	}
}
