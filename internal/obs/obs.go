// Package obs is the emulator's observability layer: a structured
// packet-lifecycle event stream, a counters/gauges registry, and exporters
// (JSONL event traces, Prometheus-text counter summaries).
//
// Every network element accepts an optional Probe and emits one Event per
// lifecycle transition of a packet (enqueue, drop, mark, dequeue, deliver,
// ack receipt) plus per-flow control-state samples (cwnd updates, rate
// samples). A nil Probe disables instrumentation entirely: call sites guard
// with a nil check and Event is a value type, so the disabled path costs one
// predictable branch and zero allocations (BenchmarkNoopProbe in
// internal/network bounds the enabled-path overhead).
//
// The Registry is a Probe that folds the event stream into per-flow and
// global counters; internal/network also assembles the same Snapshot shape
// directly from element counters at the end of every run, so results carry
// a registry snapshot even when no probe was installed. The round-trip
// tests reconcile the two constructions.
package obs

import (
	"fmt"
	"time"

	"starvation/internal/packet"
)

// EventType enumerates the packet-lifecycle transitions and control-state
// samples the emulator reports.
type EventType uint8

const (
	// EvEnqueue: the bottleneck accepted a packet into its FIFO. Queue is
	// the depth in bytes after the packet was added.
	EvEnqueue EventType = iota
	// EvDrop: a packet was discarded, either by the bottleneck's drop-tail
	// check (Queue is the depth that rejected it) or by a random-loss gate
	// (Queue is -1: the gate sits before the queue).
	EvDrop
	// EvMark: the bottleneck set the ECN congestion-experienced codepoint.
	// Emitted in addition to the EvEnqueue of the same packet.
	EvMark
	// EvDequeue: a packet finished serialization and left the bottleneck.
	// Queue is the depth after removal.
	EvDequeue
	// EvDeliver: the packet arrived at the receiver endpoint.
	EvDeliver
	// EvAckRecv: the sender processed an acknowledgment. Seq is the
	// cumulative ACK point, Bytes the newly acknowledged payload.
	EvAckRecv
	// EvCwndUpdate: the flow's congestion window changed; Bytes is the new
	// window in bytes.
	EvCwndUpdate
	// EvRateSample: periodic per-flow throughput sample; Seq is the
	// windowed delivery rate in bit/s, Queue the bottleneck depth.
	EvRateSample
	// EvRTTSample: the sender took a valid RTT measurement (Karn's rule).
	// Seq is the RTT in nanoseconds. Emitted only on the instrumented path;
	// the ACK-paced cadence makes it the raw material for windowed
	// RTT/queueing-delay series.
	EvRTTSample
	// EvFaultState: a fault element's internal state changed. Seq is 1 when
	// a Gilbert–Elliott gate enters its Bad (bursty-loss) state and 0 when
	// it returns to Good, so detectors can attribute starvation onsets to
	// co-occurring loss bursts.
	EvFaultState
	// EvPhase: a run-phase span began. Seq indexes the phase (0 setup,
	// 1 warmup, 2 measure) and Flow is -1: phases are properties of the
	// run, not of any flow. Emitted from the trace-sampling tick, so
	// enabling phases never schedules additional simulator events.
	EvPhase
	// EvStarveOnset: the online detector opened a starvation episode for
	// the flow. At is the onset (start of the first starved window of the
	// streak); Seq is the windowed delivery rate in bit/s at onset.
	EvStarveOnset
	// EvStarveEnd: the detector closed the flow's open episode. At is the
	// end of the episode; Seq is its duration in nanoseconds.
	EvStarveEnd

	numEventTypes
)

var eventTypeNames = [numEventTypes]string{
	"enqueue", "drop", "mark", "dequeue", "deliver",
	"ack_recv", "cwnd_update", "rate_sample",
	"rtt_sample", "fault_state", "phase",
	"starve_onset", "starve_end",
}

// String returns the stable wire name of the event type.
func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Run phases carried in EvPhase's Seq payload.
const (
	// PhaseSetup: topology assembly; spans only the instant before the
	// first event (flows may still be waiting on StartAt).
	PhaseSetup = iota
	// PhaseWarmup: the run before the steady-state window opens.
	PhaseWarmup
	// PhaseMeasure: the steady-state statistics window.
	PhaseMeasure
)

// PhaseName returns the stable name of a run phase index.
func PhaseName(p int) string {
	switch p {
	case PhaseSetup:
		return "setup"
	case PhaseWarmup:
		return "warmup"
	case PhaseMeasure:
		return "measure"
	}
	return fmt.Sprintf("phase(%d)", p)
}

// Event is one observation. It is a plain value: emitting one never
// allocates, and probes may retain copies freely.
type Event struct {
	Type EventType
	// At is the virtual timestamp of the observation.
	At time.Duration
	// Flow is the owning flow.
	Flow packet.FlowID
	// Seq is the event's sequence/offset payload: the packet's first byte
	// offset for lifecycle events, the cumulative ACK for EvAckRecv, and
	// the rate in bit/s for EvRateSample.
	Seq int64
	// Bytes is the byte count involved: segment size for lifecycle events,
	// newly acked payload for EvAckRecv, the new window for EvCwndUpdate.
	Bytes int
	// Queue is the bottleneck queue depth in bytes observed with the event
	// (-1 when the emitting element has no queue view, e.g. a loss gate).
	Queue int
	// Retx marks events about retransmitted segments.
	Retx bool
	// Hop is the packet's position on a multi-link path when the event was
	// emitted: 0 at the first bottleneck, 1 after it, and so on. Registries
	// count hop > 0 enqueues and drops into queue-level counters but not
	// into PacketsSent (the packet was transmitted once, at hop 0).
	Hop uint8
}

// Probe consumes the event stream. Implementations must be cheap: probes
// run inline in the simulation hot path. A nil Probe means disabled.
type Probe interface {
	Emit(e Event)
}

type multiProbe []Probe

func (m multiProbe) Emit(e Event) {
	for _, p := range m {
		p.Emit(e)
	}
}

// Multi fans one event stream out to several probes. Nil members are
// dropped; Multi of zero live probes returns nil (disabled), of one
// returns it unwrapped.
func Multi(probes ...Probe) Probe {
	live := make(multiProbe, 0, len(probes))
	for _, p := range probes {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
