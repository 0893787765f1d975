package endpoint

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"starvation/internal/cca"
	"starvation/internal/packet"
	"starvation/internal/sim"
	"starvation/internal/units"
)

// fixedAlg is a minimal CCA for transport tests: fixed window and/or pacing.
type fixedAlg struct {
	window int
	pacing units.Rate
	acks   []cca.AckSignal
	losses []cca.LossSignal
}

func (f *fixedAlg) Name() string            { return "fixed" }
func (f *fixedAlg) Window() int             { return f.window }
func (f *fixedAlg) PacingRate() units.Rate  { return f.pacing }
func (f *fixedAlg) OnAck(s cca.AckSignal)   { f.acks = append(f.acks, s) }
func (f *fixedAlg) OnLoss(s cca.LossSignal) { f.losses = append(f.losses, s) }

// loop wires a sender and receiver through an optional lossy/delayed path,
// giving transport tests a two-way harness without the full netem stack.
type loop struct {
	sim    *sim.Simulator
	sender *Sender
	recv   *Receiver
	// dropSeqs drops the first transmission of these sequence numbers.
	dropSeqs map[int64]bool
	// oneWay is the data-path delay (ACKs return instantly).
	oneWay time.Duration
	sent   int
}

func newLoop(alg cca.Algorithm, oneWay time.Duration, ackCfg AckConfig) *loop {
	l := &loop{sim: sim.New(1), oneWay: oneWay, dropSeqs: map[int64]bool{}}
	l.recv = NewReceiver(l.sim, 0, ackCfg, func(a packet.Ack) {
		l.sender.OnAck(a)
	})
	l.sender = NewSender(l.sim, 0, alg, 1500, func(p packet.Packet) {
		l.sent++
		if l.dropSeqs[p.Seq] && !p.Retx {
			return // drop first transmission only
		}
		l.sim.After(l.oneWay, func() { l.recv.OnPacket(p) })
	})
	return l
}

func TestSenderWindowLimited(t *testing.T) {
	alg := &fixedAlg{window: 4 * 1500}
	l := newLoop(alg, 10*time.Millisecond, AckConfig{})
	l.sim.At(0, l.sender.Start)
	l.sim.Run(95 * time.Millisecond)
	// Window of 4 packets, RTT 10ms: 4 packets per RTT. After ~9 full
	// RTTs plus the initial window: about 40 packets.
	if l.sent < 36 || l.sent > 44 {
		t.Errorf("sent %d packets, want ~40 (4 per 10ms RTT)", l.sent)
	}
	if l.sender.pipe > 4*1500 {
		t.Errorf("in flight %d exceeds window", l.sender.pipe)
	}
}

func TestSenderPacingSpacing(t *testing.T) {
	// 1.2 Mbit/s = one 1500B packet per 10ms.
	alg := &fixedAlg{pacing: units.Mbps(1.2)}
	var sends []time.Duration
	s := sim.New(1)
	sn := NewSender(s, 0, alg, 1500, func(p packet.Packet) {
		sends = append(sends, s.Now())
	})
	s.At(0, sn.Start)
	s.Run(100 * time.Millisecond)
	if len(sends) < 9 {
		t.Fatalf("sent %d, want ~10", len(sends))
	}
	for i := 1; i < len(sends); i++ {
		gap := sends[i] - sends[i-1]
		if gap < 9*time.Millisecond || gap > 11*time.Millisecond {
			t.Errorf("send gap %d = %v, want ~10ms", i, gap)
		}
	}
}

func TestSenderRTTSampling(t *testing.T) {
	alg := &fixedAlg{window: 2 * 1500}
	l := newLoop(alg, 25*time.Millisecond, AckConfig{})
	l.sim.At(0, l.sender.Start)
	l.sim.Run(200 * time.Millisecond)
	if len(alg.acks) == 0 {
		t.Fatal("no acks")
	}
	for _, a := range alg.acks {
		if a.RTT != 25*time.Millisecond {
			t.Errorf("RTT sample = %v, want 25ms", a.RTT)
		}
	}
	if l.sender.LastRTT != 25*time.Millisecond {
		t.Errorf("LastRTT = %v", l.sender.LastRTT)
	}
}

func TestSenderFastRetransmit(t *testing.T) {
	alg := &fixedAlg{window: 10 * 1500}
	l := newLoop(alg, 10*time.Millisecond, AckConfig{})
	l.dropSeqs[3000] = true // drop the third segment once
	l.sim.At(0, l.sender.Start)
	l.sim.Run(500 * time.Millisecond)

	if len(alg.losses) == 0 {
		t.Fatal("loss never detected")
	}
	if !alg.losses[0].NewEvent {
		t.Error("first loss not flagged as new event")
	}
	if alg.losses[0].Timeout {
		t.Error("dup-ack loss flagged as timeout")
	}
	if l.sender.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0 (fast retransmit should recover)", l.sender.Timeouts)
	}
	// Everything eventually acked.
	if l.sender.AckedBytes != l.sender.DeliveredBytes {
		t.Errorf("acked %d != delivered %d after recovery",
			l.sender.AckedBytes, l.sender.DeliveredBytes)
	}
	if l.sender.RetxBytes != 1500 {
		t.Errorf("retransmitted %d bytes, want exactly 1500", l.sender.RetxBytes)
	}
}

func TestSenderRTOBlackout(t *testing.T) {
	alg := &fixedAlg{window: 4 * 1500}
	s := sim.New(1)
	blackout := true
	var recv *Receiver
	var sn *Sender
	recv = NewReceiver(s, 0, AckConfig{}, func(a packet.Ack) { sn.OnAck(a) })
	sn = NewSender(s, 0, alg, 1500, func(p packet.Packet) {
		if blackout {
			return
		}
		s.After(10*time.Millisecond, func() { recv.OnPacket(p) })
	})
	s.At(0, sn.Start)
	s.At(700*time.Millisecond, func() { blackout = false })
	s.Run(3 * time.Second)
	if sn.Timeouts == 0 {
		t.Fatal("no RTO during blackout")
	}
	var sawTimeout bool
	for _, l := range alg.losses {
		if l.Timeout {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Error("CCA never saw a timeout loss signal")
	}
	if sn.AckedBytes == 0 {
		t.Error("no progress after blackout lifted")
	}
}

func TestSenderSackRecoveryManyHoles(t *testing.T) {
	// Drop every 5th of the first 50 segments: SACK-based detection must
	// recover all holes without an RTO.
	alg := &fixedAlg{window: 30 * 1500}
	l := newLoop(alg, 10*time.Millisecond, AckConfig{})
	for i := 0; i < 50; i += 5 {
		l.dropSeqs[int64(i*1500)] = true
	}
	l.sim.At(0, l.sender.Start)
	l.sim.Run(2 * time.Second)
	if l.sender.Timeouts > 1 {
		t.Errorf("timeouts = %d; SACK recovery should avoid RTOs", l.sender.Timeouts)
	}
	if l.sender.AckedBytes < 50*1500 {
		t.Errorf("acked only %d bytes; holes not recovered", l.sender.AckedBytes)
	}
}

func TestSenderNoSpuriousRetransmits(t *testing.T) {
	alg := &fixedAlg{window: 8 * 1500}
	l := newLoop(alg, 10*time.Millisecond, AckConfig{})
	l.sim.At(0, l.sender.Start)
	l.sim.Run(time.Second)
	if l.sender.RetxBytes != 0 {
		t.Errorf("retransmitted %d bytes on a lossless path", l.sender.RetxBytes)
	}
	if l.sender.LossEvents != 0 {
		t.Errorf("loss events = %d on a lossless path", l.sender.LossEvents)
	}
}

func TestSenderDeliveredTracksSacks(t *testing.T) {
	// With a persistent hole, DeliveredBytes keeps growing while
	// AckedBytes stalls — the PCC goodput signal.
	alg := &fixedAlg{window: 10 * 1500}
	s := sim.New(1)
	var recv *Receiver
	var sn *Sender
	recv = NewReceiver(s, 0, AckConfig{}, func(a packet.Ack) { sn.OnAck(a) })
	sn = NewSender(s, 0, alg, 1500, func(p packet.Packet) {
		if p.Seq == 0 {
			return // permanent hole at the very first segment
		}
		s.After(10*time.Millisecond, func() { recv.OnPacket(p) })
	})
	s.At(0, sn.Start)
	s.Run(190 * time.Millisecond) // before the first RTO fires
	if sn.AckedBytes != 0 {
		t.Errorf("acked %d with a hole at 0", sn.AckedBytes)
	}
	if sn.DeliveredBytes < 5*1500 {
		t.Errorf("delivered %d, want SACK progress past the hole", sn.DeliveredBytes)
	}
}

func TestSenderThroughputDef2(t *testing.T) {
	alg := &fixedAlg{window: 100 * 1500, pacing: units.Mbps(12)}
	l := newLoop(alg, 10*time.Millisecond, AckConfig{})
	l.sim.At(0, l.sender.Start)
	l.sim.Run(10 * time.Second)
	thpt := l.sender.Throughput(10 * time.Second)
	if thpt < units.Mbps(11) || thpt > units.Mbps(13) {
		t.Errorf("throughput = %v, want ~12 Mbit/s", thpt)
	}
}

// Property: for random drop patterns, the transport conserves data — all
// sent bytes are eventually acked (given enough time), in-flight never goes
// negative, and the pipe estimate never exceeds bytes actually unacked.
func TestQuickSenderConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alg := &fixedAlg{window: 16 * 1500}
		l := newLoop(alg, 10*time.Millisecond, AckConfig{})
		// Random drops over the first 200 segments (first transmission).
		for i := 0; i < 200; i++ {
			if rng.Float64() < 0.1 {
				l.dropSeqs[int64(i*1500)] = true
			}
		}
		checkOK := true
		check := func() {
			if l.sender.pipe < 0 {
				checkOK = false
			}
		}
		for i := 0; i < 100; i++ {
			at := time.Duration(i) * 50 * time.Millisecond
			l.sim.At(at, check)
		}
		l.sim.At(0, l.sender.Start)
		l.sim.Run(30 * time.Second)
		if !checkOK {
			return false
		}
		// All 200 potentially-dropped segments recovered and acked.
		return l.sender.AckedBytes >= 200*1500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
