package endpoint

import (
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/packet"
	"starvation/internal/sim"
	"starvation/internal/units"
)

// budgetAlg is a CCA with a fixed window and pacing rate that records
// nothing, so that it allocates nothing per signal.
type budgetAlg struct {
	window int
	pacing units.Rate
}

func (b *budgetAlg) Name() string           { return "budget" }
func (b *budgetAlg) Window() int            { return b.window }
func (b *budgetAlg) PacingRate() units.Rate { return b.pacing }
func (b *budgetAlg) OnAck(cca.AckSignal)    {}
func (b *budgetAlg) OnLoss(cca.LossSignal)  {}

// hotPath wires a paced sender to a delayed-ACK receiver through two
// lanes of 10 ms each way, drops the packets drop selects, and runs two
// emulated seconds so every buffer has reached its steady size. The
// returned step runs the simulator until the sender has processed one
// more ACK.
func hotPath(t *testing.T, drop func(packet.Packet) bool) (*Sender, func()) {
	const oneWay = 10 * time.Millisecond
	s := sim.New(1)
	var data sim.Lane[packet.Packet]
	var acks sim.Lane[packet.Ack]
	alg := &budgetAlg{window: 64 * DefaultMSS, pacing: units.Mbps(24)}
	rc := NewReceiver(s, 0, AckConfig{DelayCount: 2}, func(a packet.Ack) { acks.Push(s.Now()+oneWay, a) })
	sn := NewSender(s, 0, alg, DefaultMSS, func(p packet.Packet) {
		if !drop(p) {
			data.Push(s.Now()+oneWay, p)
		}
	})
	data.Init(s, rc.OnPacket)
	acks.Init(s, sn.OnAck)
	sn.Start()
	s.Run(2 * time.Second)
	return sn, func() {
		for n := sn.AcksReceived; sn.AcksReceived == n; {
			if !s.Step() {
				t.Fatal("the simulator ran dry")
			}
		}
	}
}

// TestHotPathBudget is the sender and receiver's allocation gate: once
// warm, processing an ACK — and everything it triggers, transmissions,
// pacing wakes, RTO re-arms, delayed-ACK flushes — allocates nothing, on a
// loss-free path and in a recovery that keeps retransmissions in the pipe
// inside their grace period, where the SACK scan passes over them by their
// bits.
func TestHotPathBudget(t *testing.T) {
	for _, w := range []struct {
		name string
		drop func(packet.Packet) bool
	}{
		{"LossFree", func(packet.Packet) bool { return false }},
		// The first transmission of every 40th segment.
		{"RecoveryInGrace", func(p packet.Packet) bool { return !p.Retx && p.Seq/DefaultMSS%40 == 7 }},
	} {
		sn, step := hotPath(t, w.drop)
		acks, retx, timeouts := sn.AcksReceived, sn.RetxPackets, sn.Timeouts
		inGrace := 0 // ACKs that found a retransmission in the pipe inside its grace
		allocs := testing.AllocsPerRun(5000, func() {
			step()
			// retxInGrace first drops stale entries: a live one is left
			// only if a retransmission is in the pipe.
			if sn.retxInGrace(sn.sim.Now(), sn.grace()) && sn.retxAgeHead < len(sn.retxAge) {
				inGrace++
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per ACK, want none", w.name, allocs)
		}
		if sn.Timeouts != timeouts {
			t.Errorf("%s: %d RTOs while measured", w.name, sn.Timeouts-timeouts)
		}
		lossy := w.name != "LossFree"
		if got := sn.RetxPackets > retx; got != lossy || lossy && inGrace == 0 {
			t.Errorf("%s: %d retransmissions, %d ACKs with a retransmission in grace", w.name, sn.RetxPackets-retx, inGrace)
		}
		t.Logf("%s: %v allocs/ACK over %d ACKs, %d retransmissions, %d ACKs with retransmissions in grace",
			w.name, allocs, sn.AcksReceived-acks, sn.RetxPackets-retx, inGrace)
	}
}
