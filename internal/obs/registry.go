package obs

import "starvation/internal/packet"

// FlowCounters is the per-flow section of a Snapshot. All fields are
// derivable from the event stream: PacketsSent is enqueues plus drops
// (every transmitted segment either enters the bottleneck or is discarded
// on the way in), so an event-fed Registry and the emulator's own element
// counters agree exactly.
type FlowCounters struct {
	Name string `json:"name"`
	// Cohort labels the flow's population cohort (e.g. its CCA name in a
	// mixed-CCA experiment). It travels via the emulator like Name, not via
	// events; the Prometheus exporter aggregates per-flow counters under it.
	Cohort string `json:"cohort,omitempty"`

	PacketsSent      int64 `json:"packets_sent"`
	PacketsEnqueued  int64 `json:"packets_enqueued"`
	PacketsDropped   int64 `json:"packets_dropped"`
	PacketsMarked    int64 `json:"packets_marked"`
	PacketsDelivered int64 `json:"packets_delivered"`
	Retransmits      int64 `json:"retransmits"`
	AcksReceived     int64 `json:"acks_received"`

	// Loss-gate counters. PacketsDropped already includes gate drops;
	// DroppedAtGate isolates the pre-queue share (Bernoulli and
	// Gilbert–Elliott gates).
	PacketsDequeued int64 `json:"packets_dequeued"`
	DroppedAtGate   int64 `json:"dropped_at_gate"`

	BytesSent      int64 `json:"bytes_sent"`
	BytesEnqueued  int64 `json:"bytes_enqueued"`
	BytesAcked     int64 `json:"bytes_acked"`
	BytesDelivered int64 `json:"bytes_delivered"`

	CwndUpdates int64 `json:"cwnd_updates"`
	RateSamples int64 `json:"rate_samples"`
}

// Counters is the global section of a Snapshot.
type Counters struct {
	PacketsEnqueued  int64 `json:"packets_enqueued"`
	PacketsDequeued  int64 `json:"packets_dequeued"`
	PacketsDropped   int64 `json:"packets_dropped"`
	PacketsMarked    int64 `json:"packets_marked"`
	PacketsDelivered int64 `json:"packets_delivered"`
	AcksReceived     int64 `json:"acks_received"`
	BytesEnqueued    int64 `json:"bytes_enqueued"`
	MaxQueueBytes    int64 `json:"max_queue_bytes"`

	// Event-loop gauges, filled only by the emulator's end-of-run snapshot
	// (the packet event stream does not carry them).
	SimEventsScheduled uint64 `json:"sim_events_scheduled"`
	SimEventsFired     uint64 `json:"sim_events_fired"`
}

// Snapshot is a point-in-time copy of the registry: global counters plus
// one FlowCounters per flow, indexed by FlowID.
type Snapshot struct {
	Global Counters       `json:"global"`
	Flows  []FlowCounters `json:"flows"`
}

// Flow returns the counters for id, growing the slice as needed so
// out-of-order flow discovery is harmless.
func (s *Snapshot) Flow(id packet.FlowID) *FlowCounters {
	for int(id) >= len(s.Flows) {
		s.Flows = append(s.Flows, FlowCounters{})
	}
	return &s.Flows[id]
}

// Registry is a Probe that folds the event stream into counters.
//
// Ownership: a Registry is single-writer, like the simulator feeding it —
// Emit must be called from the goroutine that owns the run
// (TestRegistrySingleWriterOwnership pins this contract). Concurrent
// sweeps must give each run its own Registry (they are cheap) or share one
// through a Synchronized wrapper; handing one bare Registry to several
// emitting goroutines corrupts the counters.
type Registry struct {
	snap Snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Emit implements Probe.
func (r *Registry) Emit(e Event) {
	g := &r.snap.Global
	if e.Flow < 0 {
		// Global events (run phases) carry no owning flow and no count;
		// Snapshot.Flow would panic on a negative id.
		return
	}
	f := r.snap.Flow(e.Flow)
	switch e.Type {
	case EvEnqueue:
		if e.Hop == 0 {
			f.PacketsSent++
			f.BytesSent += int64(e.Bytes)
			if e.Retx {
				f.Retransmits++
			}
		}
		f.PacketsEnqueued++
		f.BytesEnqueued += int64(e.Bytes)
		g.PacketsEnqueued++
		g.BytesEnqueued += int64(e.Bytes)
		if q := int64(e.Queue); q > g.MaxQueueBytes {
			g.MaxQueueBytes = q
		}
	case EvDrop:
		if e.Hop == 0 {
			f.PacketsSent++
			f.BytesSent += int64(e.Bytes)
			if e.Retx {
				f.Retransmits++
			}
		}
		f.PacketsDropped++
		if e.Queue < 0 {
			f.DroppedAtGate++
		}
		g.PacketsDropped++
	case EvMark:
		f.PacketsMarked++
		g.PacketsMarked++
	case EvDequeue:
		f.PacketsDequeued++
		g.PacketsDequeued++
	case EvDeliver:
		f.PacketsDelivered++
		f.BytesDelivered += int64(e.Bytes)
		g.PacketsDelivered++
	case EvAckRecv:
		f.AcksReceived++
		f.BytesAcked += int64(e.Bytes)
		g.AcksReceived++
	case EvCwndUpdate:
		f.CwndUpdates++
	case EvRateSample:
		f.RateSamples++
	}
}
