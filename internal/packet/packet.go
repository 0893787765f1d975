// Package packet defines the data and acknowledgment records exchanged
// between the emulated endpoints. Packets are value types: network elements
// copy them freely, so no aliasing bugs can leak state between flows.
package packet

import "time"

// FlowID identifies a flow within a scenario. Flows are numbered from 0 in
// the order they are added to the network.
type FlowID int

// Packet is a data segment in flight from a sender to a receiver.
type Packet struct {
	Flow FlowID
	// Seq is the byte offset of the first payload byte of this segment.
	Seq int64
	// Size is the segment size in bytes (header overhead is ignored; the
	// paper's model works in MTU-sized packets).
	Size int
	// SentAt is the sender timestamp, echoed on the ACK so the sender can
	// compute an exact RTT sample even across retransmissions.
	SentAt time.Duration
	// Retx marks a retransmitted segment.
	Retx bool
	// ECN is set by the bottleneck when the packet is marked (CE).
	ECN bool
	// Hop counts the bottleneck links the packet has already departed on a
	// multi-link path (0 at the first link). Lifecycle events emitted past
	// the first hop carry it so registries do not re-count the packet as a
	// fresh sender transmission.
	Hop uint8
}

// Ack acknowledges received data back to the sender.
type Ack struct {
	Flow FlowID
	// CumAck is the next byte the receiver expects: all bytes below it have
	// been received.
	CumAck int64
	// SackSeq is the sequence number of the segment that triggered this ACK
	// (a one-block SACK analogue used for duplicate-ACK loss detection).
	SackSeq int64
	// EchoSentAt echoes Packet.SentAt of the triggering segment.
	EchoSentAt time.Duration
	// EchoRetx reports whether the triggering segment was a retransmission
	// (senders skip RTT sampling on those, Karn's rule).
	EchoRetx bool
	// RecvdAt is the receiver timestamp when the triggering segment arrived.
	RecvdAt time.Duration
	// Count is the number of segments this ACK covers (>1 for delayed or
	// aggregated ACKs).
	Count int
	// NewlyAcked is the number of payload bytes newly acknowledged relative
	// to the receiver's previous cumulative ACK. For ACKs of out-of-order
	// data this is 0.
	NewlyAcked int
	// Delivered is the cumulative count of distinct payload bytes the
	// receiver has accepted, in any order. Rate-based CCAs (PCC, BBR)
	// measure goodput from this, as their UDP-based implementations do,
	// so heavy loss does not stall their bandwidth signal the way
	// cumulative-ACK progress does.
	Delivered int64
	// ECE is the ECN echo: set when any covered segment was marked.
	ECE bool
}
