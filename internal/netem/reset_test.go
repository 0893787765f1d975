package netem

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"starvation/internal/netem/jitter"
	"starvation/internal/packet"
	"starvation/internal/sim"
	"starvation/internal/units"
)

// arrival is one observed packet exit: when and which sequence number.
type arrival struct {
	At  time.Duration
	Seq int64
}

// TestLinkResetIndistinguishableFromFresh drives a drop-tail scenario
// through a fresh link and through a link that already ran a different
// scenario and was Reset (simulator first, per the contract). Delivery
// sequence, drop counters, and queue statistics must match exactly.
func TestLinkResetIndistinguishableFromFresh(t *testing.T) {
	scenario := func(s *sim.Simulator, l *Link, log *[]arrival) {
		s.At(0, func() {
			for i := 0; i < 6; i++ {
				l.Enqueue(packet.Packet{Seq: int64(i), Size: 1500})
			}
		})
		s.At(20*time.Millisecond, func() {
			l.Enqueue(packet.Packet{Seq: 6, Size: 1500})
		})
		s.Run(time.Second)
	}
	stats := func(l *Link) []int64 {
		return []int64{l.Delivered, l.Dropped, l.Marked, int64(l.MaxQueue),
			l.EnqueuedPkts, l.EnqueuedBytes, int64(l.QueuedBytes())}
	}

	var freshLog []arrival
	fs := sim.New(1)
	fl := NewLink(fs, units.Mbps(12), 4*1500, func(p packet.Packet) {
		freshLog = append(freshLog, arrival{fs.Now(), p.Seq})
	})
	scenario(fs, fl, &freshLog)

	var log []arrival
	rs := sim.New(9)
	rl := NewLink(rs, units.Mbps(48), 2*1500, func(p packet.Packet) {
		log = append(log, arrival{rs.Now(), p.Seq})
	})
	scenario(rs, rl, &log) // dirty run at a different rate/buffer
	rs.Reset(1)
	rl.Reset(units.Mbps(12), 4*1500)
	log = log[:0]
	scenario(rs, rl, &log)

	if !reflect.DeepEqual(log, freshLog) {
		t.Errorf("reset link deliveries diverged:\n got %v\nwant %v", log, freshLog)
	}
	if got, want := stats(rl), stats(fl); !reflect.DeepEqual(got, want) {
		t.Errorf("reset link stats diverged: got %v want %v", got, want)
	}
	if got, want := rl.FlowStats(0), fl.FlowStats(0); got != want {
		t.Errorf("reset link per-flow stats diverged: got %+v want %+v", got, want)
	}
}

// TestDelayBoxResetIndistinguishableFromFresh pins DelayBox and AckDelayBox
// reuse: after simulator + box reset with a new jitter policy, releases
// happen at the same times in the same order as a fresh box.
func TestDelayBoxResetIndistinguishableFromFresh(t *testing.T) {
	policy := func(seed int64) jitter.Policy {
		return &jitter.Uniform{Max: 3 * time.Millisecond, Rng: rand.New(rand.NewSource(seed))}
	}
	scenario := func(s *sim.Simulator, box *DelayBox, ackBox *AckDelayBox) {
		for i := 0; i < 20; i++ {
			i := i
			s.At(time.Duration(i)*time.Millisecond, func() {
				box.Send(packet.Packet{Seq: int64(i), Size: 1500})
				ackBox.Send(packet.Ack{CumAck: int64(i)})
			})
		}
		s.Run(time.Second)
	}

	var freshLog []arrival
	fs := sim.New(1)
	fBox := NewDelayBox(fs, policy(5), func(p packet.Packet) {
		freshLog = append(freshLog, arrival{fs.Now(), p.Seq})
	})
	fAck := NewAckDelayBox(fs, policy(6), func(a packet.Ack) {
		freshLog = append(freshLog, arrival{fs.Now(), -a.CumAck - 1})
	})
	scenario(fs, fBox, fAck)

	var log []arrival
	rs := sim.New(3)
	rBox := NewDelayBox(rs, policy(77), func(p packet.Packet) {
		log = append(log, arrival{rs.Now(), p.Seq})
	})
	rAck := NewAckDelayBox(rs, policy(78), func(a packet.Ack) {
		log = append(log, arrival{rs.Now(), -a.CumAck - 1})
	})
	scenario(rs, rBox, rAck) // dirty run with different jitter draws
	rs.Reset(1)
	rBox.Reset(policy(5))
	rAck.Reset(policy(6))
	log = log[:0]
	scenario(rs, rBox, rAck)

	if !reflect.DeepEqual(log, freshLog) {
		t.Errorf("reset delay boxes diverged:\n got %v\nwant %v", log, freshLog)
	}
	if rBox.InTransit() != 0 {
		t.Errorf("InTransit = %d after drain", rBox.InTransit())
	}
	if rBox.MaxApplied != fBox.MaxApplied || rAck.MaxApplied != fAck.MaxApplied {
		t.Errorf("MaxApplied diverged: box %v/%v ack %v/%v",
			rBox.MaxApplied, fBox.MaxApplied, rAck.MaxApplied, fAck.MaxApplied)
	}
}

// TestDelayBoxResetWithPacketsHeld resets boxes whose lanes still hold
// packets — in SendAfter's propagation stage, in the policy delay, and on
// the ACK path — and requires the next run to match a fresh box's: the
// same releases at the same times, the same event counts, and nothing of
// the abandoned packets surfacing.
func TestDelayBoxResetWithPacketsHeld(t *testing.T) {
	policy := func(seed int64) jitter.Policy {
		return &jitter.Uniform{Max: 4 * time.Millisecond, Rng: rand.New(rand.NewSource(seed))}
	}
	scenario := func(s *sim.Simulator, box *DelayBox, ackBox *AckDelayBox, horizon time.Duration) {
		for i := 0; i < 30; i++ {
			i := i
			s.At(time.Duration(i)*500*time.Microsecond, func() {
				box.SendAfter(packet.Packet{Seq: int64(i), Size: 1500}, 10*time.Millisecond)
				box.Send(packet.Packet{Seq: 1000 + int64(i), Size: 1500})
				ackBox.Send(packet.Ack{CumAck: int64(i)})
			})
		}
		s.Run(horizon)
	}
	build := func(s *sim.Simulator, log *[]arrival) (*DelayBox, *AckDelayBox) {
		box := NewDelayBox(s, policy(5), func(p packet.Packet) { *log = append(*log, arrival{s.Now(), p.Seq}) })
		ack := NewAckDelayBox(s, policy(6), func(a packet.Ack) { *log = append(*log, arrival{s.Now(), -a.CumAck - 1}) })
		return box, ack
	}

	var freshLog []arrival
	fs := sim.New(1)
	fBox, fAck := build(fs, &freshLog)
	scenario(fs, fBox, fAck, time.Second)

	var log []arrival
	rs := sim.New(3)
	rBox, rAck := build(rs, &log)
	scenario(rs, rBox, rAck, 12*time.Millisecond) // cut off with every stage holding packets
	if rBox.prop.Len() == 0 || rBox.rel.Len() == 0 || rAck.rel.Len() == 0 {
		t.Fatalf("dirty run holds %d/%d/%d packets: every lane must hold some at reset",
			rBox.prop.Len(), rBox.rel.Len(), rAck.rel.Len())
	}
	rs.Reset(1)
	rBox.Reset(policy(5))
	rAck.Reset(policy(6))
	log = log[:0]
	scenario(rs, rBox, rAck, time.Second)

	if !reflect.DeepEqual(log, freshLog) {
		t.Errorf("boxes reset with packets held diverged:\n got %v\nwant %v", log, freshLog)
	}
	if rs.Stats() != fs.Stats() {
		t.Errorf("event counters diverged: %+v, fresh %+v", rs.Stats(), fs.Stats())
	}
	if rBox.InTransit() != 0 || rBox.prop.Len()+rBox.rel.Len()+rAck.rel.Len() != 0 {
		t.Errorf("InTransit = %d, lanes %d/%d/%d after drain",
			rBox.InTransit(), rBox.prop.Len(), rBox.rel.Len(), rAck.rel.Len())
	}
}

// TestLossGateResetIndistinguishableFromFresh pins that a reset gate (with
// its exported Rng reseeded, as the session does) makes the identical
// drop decisions as a fresh gate with the same seed.
func TestLossGateResetIndistinguishableFromFresh(t *testing.T) {
	drive := func(g *LossGate) []int64 {
		var passed []int64
		g.out = func(p packet.Packet) { passed = append(passed, p.Seq) }
		for i := 0; i < 500; i++ {
			g.Send(packet.Packet{Seq: int64(i), Size: 1500})
		}
		return passed
	}
	fresh := NewLossGate(0.1, rand.New(rand.NewSource(42)), nil)
	want := drive(fresh)

	reused := NewLossGate(0.5, rand.New(rand.NewSource(7)), nil)
	drive(reused)
	reused.Reset(0.1)
	reused.Rng.Seed(42)
	got := drive(reused)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("reset gate pass sequence diverged (%d vs %d passed)", len(got), len(want))
	}
	if reused.Passed != fresh.Passed || reused.Dropped != fresh.Dropped {
		t.Errorf("counters diverged: passed %d/%d dropped %d/%d",
			reused.Passed, fresh.Passed, reused.Dropped, fresh.Dropped)
	}
}
