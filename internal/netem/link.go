// Package netem implements the network elements of the paper's model (§3):
// a shared FIFO bottleneck drained at a constant rate, fixed propagation
// delay, per-flow bounded non-congestive delay boxes, and loss injectors.
//
// Elements are composed with callbacks: each element delivers packets to the
// next by invoking a handler, and all timing runs on the shared sim clock.
package netem

import (
	"math"
	"time"

	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/sim"
	"starvation/internal/units"
)

// PacketHandler consumes a data packet from an upstream element.
type PacketHandler func(p packet.Packet)

// AckHandler consumes an ACK from an upstream element.
type AckHandler func(a packet.Ack)

// Link is the shared bottleneck: a byte-accurate FIFO queue drained at a
// constant rate C. Packets arriving when the buffer is full are dropped
// (drop-tail). A zero BufferBytes means an effectively infinite
// queue, the ideal-path assumption of Definition 1.
type Link struct {
	sim    *sim.Simulator
	rate   units.Rate
	buf    int // bytes; 0 = infinite
	marker Marker
	out    PacketHandler
	probe  obs.Probe

	queuedBytes   int
	lastDeparture time.Duration

	// lane holds the queued packets in FIFO order, each with its departure
	// time, fixed at enqueue time; only the head's departure is a live
	// event.
	lane sim.Lane[packet.Packet]

	// Stats.
	Delivered     int64 // packets delivered
	Dropped       int64 // packets dropped at the tail
	Marked        int64 // packets ECN-marked
	MaxQueue      int   // high-water mark in bytes
	EnqueuedPkts  int64 // packets accepted into the queue
	EnqueuedBytes int64 // bytes accepted into the queue
	perFlow       []FlowLinkStats
}

// FlowLinkStats breaks the link's counters down by owning flow.
type FlowLinkStats struct {
	Enqueued      int64
	EnqueuedBytes int64
	Delivered     int64
	Dropped       int64
	Marked        int64
	// Holding is the flow's packets currently queued (enqueued, not yet
	// departed) — a gauge, not a counter; conservation ledgers use it to
	// account for in-flight packets at the horizon.
	Holding int64
}

// NewLink creates a bottleneck of the given rate and buffer size that
// delivers departing packets to out.
func NewLink(s *sim.Simulator, rate units.Rate, bufferBytes int, out PacketHandler) *Link {
	l := &Link{sim: s, rate: rate, buf: bufferBytes, out: out}
	l.lane.Init(s, l.depart)
	return l
}

// Reset returns the link to the state NewLink(s, rate, bufferBytes, out)
// would produce, keeping the queue's and per-flow counters' capacity and
// the bound departure callback. The caller must reset the shared
// simulator first: the queued packets are abandoned wholesale with the
// head's departure event, not cancelled.
// Marker and probe are cleared; reinstall them after.
func (l *Link) Reset(rate units.Rate, bufferBytes int) {
	l.rate = rate
	l.buf = bufferBytes
	l.marker = nil
	l.probe = nil
	l.queuedBytes = 0
	l.lastDeparture = 0
	l.lane.Reset()
	l.Delivered, l.Dropped, l.Marked = 0, 0, 0
	l.MaxQueue = 0
	l.EnqueuedPkts, l.EnqueuedBytes = 0, 0
	l.perFlow = l.perFlow[:0]
}

// SetProbe installs a lifecycle-event probe. A nil probe (the default)
// disables event emission at the cost of one branch per transition.
func (l *Link) SetProbe(p obs.Probe) { l.probe = p }

// FlowStats returns the per-flow counter block for f (zeros for flows the
// link has not yet seen).
func (l *Link) FlowStats(f packet.FlowID) FlowLinkStats {
	if int(f) < len(l.perFlow) {
		return l.perFlow[f]
	}
	return FlowLinkStats{}
}

func (l *Link) flow(f packet.FlowID) *FlowLinkStats {
	for int(f) >= len(l.perFlow) {
		l.perFlow = append(l.perFlow, FlowLinkStats{})
	}
	return &l.perFlow[f]
}

// QueuedBytes returns the bytes currently waiting or in transmission.
func (l *Link) QueuedBytes() int { return l.queuedBytes }

// Prime pre-loads the queue with a virtual backlog that takes delay to
// drain. The Theorem 1 construction uses this to set the initial queueing
// delay d*(0). The backlog drains at line rate but is not delivered to any
// flow.
func (l *Link) Prime(delay time.Duration) {
	if delay <= 0 {
		return
	}
	now := l.sim.Now()
	if l.lastDeparture < now {
		l.lastDeparture = now
	}
	l.lastDeparture += delay
	b := int(math.Round(float64(l.rate) / 8 * delay.Seconds()))
	l.queuedBytes += b
	l.sim.At(l.lastDeparture, func() { l.queuedBytes -= b })
}

// Enqueue offers a packet to the bottleneck. The packet is either queued
// for later delivery or dropped.
func (l *Link) Enqueue(p packet.Packet) {
	now := l.sim.Now()
	if l.buf > 0 && l.queuedBytes+p.Size > l.buf {
		l.Dropped++
		l.flow(p.Flow).Dropped++
		if l.probe != nil {
			l.probe.Emit(obs.Event{Type: obs.EvDrop, At: now, Flow: p.Flow,
				Seq: p.Seq, Bytes: p.Size, Queue: l.queuedBytes, Retx: p.Retx, Hop: p.Hop})
		}
		return
	}
	marked := l.marker != nil && l.marker.Mark(l.queuedBytes)
	if marked {
		p.ECN = true
		l.Marked++
		l.flow(p.Flow).Marked++
	}
	if l.lastDeparture < now {
		l.lastDeparture = now
	}
	l.lastDeparture += l.rate.TxTime(p.Size)
	l.queuedBytes += p.Size
	if l.queuedBytes > l.MaxQueue {
		l.MaxQueue = l.queuedBytes
	}
	l.EnqueuedPkts++
	l.EnqueuedBytes += int64(p.Size)
	fs := l.flow(p.Flow)
	fs.Enqueued++
	fs.EnqueuedBytes += int64(p.Size)
	fs.Holding++
	if l.probe != nil {
		if marked {
			l.probe.Emit(obs.Event{Type: obs.EvMark, At: now, Flow: p.Flow,
				Seq: p.Seq, Bytes: p.Size, Queue: l.queuedBytes, Retx: p.Retx, Hop: p.Hop})
		}
		l.probe.Emit(obs.Event{Type: obs.EvEnqueue, At: now, Flow: p.Flow,
			Seq: p.Seq, Bytes: p.Size, Queue: l.queuedBytes, Retx: p.Retx, Hop: p.Hop})
	}
	l.lane.Push(l.lastDeparture, p)
}

// depart completes serialization of the oldest queued packet, the lane's
// head.
func (l *Link) depart(p packet.Packet) {
	l.queuedBytes -= p.Size
	l.Delivered++
	fs := l.flow(p.Flow)
	fs.Delivered++
	fs.Holding--
	if l.probe != nil {
		l.probe.Emit(obs.Event{Type: obs.EvDequeue, At: l.sim.Now(), Flow: p.Flow,
			Seq: p.Seq, Bytes: p.Size, Queue: l.queuedBytes, Retx: p.Retx, Hop: p.Hop})
	}
	l.out(p)
}
