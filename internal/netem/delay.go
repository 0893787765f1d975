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
	out    PacketHandler

	lastRelease time.Duration
	inTransit   int64

	// deliverFn/releaseFn are the deliver and release methods bound once at
	// construction so the per-packet scheduling calls pass an existing func
	// value instead of allocating a method-value closure each time.
	deliverFn func(packet.Packet)
	releaseFn func(packet.Packet)

	// MaxApplied records the largest delay actually applied, for checking
	// that a scenario stayed within its declared bound D.
	MaxApplied time.Duration
}

// InTransit returns the number of packets currently inside the box
// (accepted but not yet released downstream). Conservation ledgers use it
// to account for packets in flight at the horizon.
func (b *DelayBox) InTransit() int64 { return b.inTransit }

// NewDelayBox returns a delay element applying the given policy.
func NewDelayBox(s *sim.Simulator, p jitter.Policy, out PacketHandler) *DelayBox {
	b := &DelayBox{sim: s, policy: p, out: out}
	b.deliverFn = b.deliver
	b.releaseFn = b.release
	return b
}

// Reset returns the box to the state NewDelayBox(s, p, out) would produce,
// keeping the bound callbacks. Packets held at reset time are abandoned
// (the caller resets the shared simulator first, which drops their release
// events), so the in-transit gauge restarts at zero.
func (b *DelayBox) Reset(p jitter.Policy) {
	b.policy = p
	b.lastRelease = 0
	b.inTransit = 0
	b.MaxApplied = 0
}

// Send applies the policy delay to p.
func (b *DelayBox) Send(p packet.Packet) {
	b.inTransit++
	b.deliver(p)
}

// SendAfter first applies a fixed extra delay (e.g. propagation) and then
// the policy delay. The policy is consulted at the packet's arrival time at
// the box, i.e. after the extra delay has elapsed.
func (b *DelayBox) SendAfter(p packet.Packet, extra time.Duration) {
	b.inTransit++
	if extra <= 0 {
		b.deliver(p)
		return
	}
	b.sim.AfterPacket(extra, b.deliverFn, p)
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
	b.sim.AtPacket(release, b.releaseFn, p)
}

// release hands a held packet downstream at its scheduled release time.
func (b *DelayBox) release(p packet.Packet) {
	b.inTransit--
	b.out(p)
}

// AckDelayBox is the same element for the reverse (ACK) path.
type AckDelayBox struct {
	sim    *sim.Simulator
	policy jitter.Policy
	out    AckHandler

	lastRelease time.Duration
	MaxApplied  time.Duration
}

// NewAckDelayBox returns an ACK-path delay element applying the policy.
func NewAckDelayBox(s *sim.Simulator, p jitter.Policy, out AckHandler) *AckDelayBox {
	return &AckDelayBox{sim: s, policy: p, out: out}
}

// Reset returns the box to the state NewAckDelayBox(s, p, out) would
// produce; see DelayBox.Reset for the simulator-first contract.
func (b *AckDelayBox) Reset(p jitter.Policy) {
	b.policy = p
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
	b.sim.AtAck(release, b.out, a)
}
