package netem

import (
	"time"

	"starvation/internal/netem/jitter"
	"starvation/internal/packet"
	"starvation/internal/sim"
)

// DelayBox is the paper's per-flow non-congestive delay element for data
// packets: it holds each packet for a policy-chosen duration in [0, D] and
// never reorders (release times are clamped to be monotone).
type DelayBox struct {
	sim    *sim.Simulator
	policy jitter.Policy

	lastRelease time.Duration

	// prop holds packets in SendAfter's fixed extra delay, rel those in
	// the policy delay, delivered to out; only each lane's head is a live
	// event.
	prop sim.Lane[packet.Packet]
	rel  sim.Lane[packet.Packet]

	// MaxApplied records the largest delay actually applied, for checking
	// that a scenario stayed within its declared bound D.
	MaxApplied time.Duration
}

// InTransit returns the number of packets currently inside the box
// (accepted but not yet released downstream). Conservation ledgers use it
// to account for packets in flight at the horizon.
func (b *DelayBox) InTransit() int64 { return int64(b.prop.Len() + b.rel.Len()) }

// NewDelayBox returns a delay element applying the given policy.
func NewDelayBox(s *sim.Simulator, p jitter.Policy, out PacketHandler) *DelayBox {
	b := &DelayBox{sim: s, policy: p}
	b.prop.Init(s, b.deliver)
	b.rel.Init(s, out)
	return b
}

// Reset returns the box to the state NewDelayBox(s, p, out) would produce,
// keeping the lanes' capacity. Packets held at reset time are abandoned
// (the caller resets the shared simulator first, which drops their lanes'
// head events).
func (b *DelayBox) Reset(p jitter.Policy) {
	b.policy = p
	b.prop.Reset()
	b.rel.Reset()
	b.lastRelease = 0
	b.MaxApplied = 0
}

// Send applies the policy delay to p.
func (b *DelayBox) Send(p packet.Packet) {
	b.deliver(p)
}

// SendAfter first applies a fixed extra delay (e.g. propagation) and then
// the policy delay. The policy is consulted at the packet's arrival time at
// the box, i.e. after the extra delay has elapsed. The extra delay is a
// FIFO stage: it must not shrink from one packet to the next within a run.
func (b *DelayBox) SendAfter(p packet.Packet, extra time.Duration) {
	if extra <= 0 {
		b.deliver(p)
		return
	}
	b.prop.Push(b.sim.Now()+extra, p)
}

func (b *DelayBox) deliver(p packet.Packet) {
	now := b.sim.Now()
	var d time.Duration
	if pa, ok := b.policy.(jitter.PacketAware); ok {
		d = pa.DelayPacket(now, p.SentAt, p.Seq)
	} else {
		d = b.policy.Delay(now, p.Seq)
	}
	if d < 0 {
		d = 0
	}
	if d > b.MaxApplied {
		b.MaxApplied = d
	}
	release := now + d
	if release < b.lastRelease {
		release = b.lastRelease // preserve FIFO order within the flow
	}
	b.lastRelease = release
	b.rel.Push(release, p)
}

// AckDelayBox is the same element for the reverse (ACK) path.
type AckDelayBox struct {
	sim    *sim.Simulator
	policy jitter.Policy

	lastRelease time.Duration
	rel         sim.Lane[packet.Ack] // ACKs held, delivered to out
	MaxApplied  time.Duration
}

// NewAckDelayBox returns an ACK-path delay element applying the policy.
func NewAckDelayBox(s *sim.Simulator, p jitter.Policy, out AckHandler) *AckDelayBox {
	b := &AckDelayBox{sim: s, policy: p}
	b.rel.Init(s, out)
	return b
}

// Reset returns the box to the state NewAckDelayBox(s, p, out) would
// produce; see DelayBox.Reset for the simulator-first contract.
func (b *AckDelayBox) Reset(p jitter.Policy) {
	b.policy = p
	b.rel.Reset()
	b.lastRelease = 0
	b.MaxApplied = 0
}

// Send applies the policy delay to a.
func (b *AckDelayBox) Send(a packet.Ack) {
	now := b.sim.Now()
	d := b.policy.Delay(now, a.SackSeq)
	if d < 0 {
		d = 0
	}
	if d > b.MaxApplied {
		b.MaxApplied = d
	}
	release := now + d
	if release < b.lastRelease {
		release = b.lastRelease
	}
	b.lastRelease = release
	b.rel.Push(release, a)
}
