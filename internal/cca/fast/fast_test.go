package fast

import (
	"math"
	"testing"
	"time"

	"starvation/internal/cca"
)

func drive(f *sender, start, rtt time.Duration, epochs int) time.Duration {
	now := start
	for e := 0; e < epochs; e++ {
		acks := int(f.cwnd)
		if acks < 1 {
			acks = 1
		}
		per := rtt / time.Duration(acks)
		for i := 0; i < acks; i++ {
			now += per
			f.OnAck(cca.AckSignal{Now: now, RTT: rtt, AckedBytes: f.mss, Packets: 1})
		}
	}
	return now
}

func TestFixedPoint(t *testing.T) {
	// At the FAST fixed point, w = base/rtt·w + α, i.e. the flow queues
	// exactly α packets. Feed the consistent RTT and verify w is stable.
	w := 100.0
	f := newSender(1500)
	f.Restart(100*time.Millisecond, w)
	// rtt such that queued = w·(rtt−base)/rtt = α → rtt = base·w/(w−α).
	base := 100 * time.Millisecond
	rtt := time.Duration(float64(base) * w / (w - 4))
	drive(f, 0, rtt, 10)
	if got := f.cwnd; math.Abs(got-w) > 0.5 {
		t.Errorf("cwnd drifted from fixed point: %v, want ~%v", got, w)
	}
}

func TestConvergesTowardFixedPoint(t *testing.T) {
	// Starting below the fixed point with an empty queue (rtt = base),
	// FAST grows multiplicatively.
	f := newSender(1500)
	f.Restart(100*time.Millisecond, 10)
	drive(f, 0, 100*time.Millisecond, 3)
	got := f.cwnd
	if got <= 10 {
		t.Errorf("cwnd did not grow at empty queue: %v", got)
	}
	// Growth is capped at doubling per update.
	if got > 10*math.Pow(2, 3) {
		t.Errorf("cwnd grew faster than doubling: %v", got)
	}
}

func TestBacksOffWhenOverQueued(t *testing.T) {
	f := newSender(1500)
	f.Restart(100*time.Millisecond, 100)
	// RTT 1.5× base: 33 packets queued ≫ α. Each per-RTT update moves the
	// window a γ-weighted step toward the fixed point w = 4·rtt/(rtt−base)
	// = 12: w ← 0.833·w + 2, so ~20 RTTs reach within a few packets.
	drive(f, 0, 150*time.Millisecond, 20)
	got := f.cwnd
	if got > 17 {
		t.Errorf("cwnd = %v, want near 12 (drain toward α packets)", got)
	}
}

func TestLossHalves(t *testing.T) {
	f := newSender(1500)
	f.cwnd = 60
	f.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true})
	if got := f.cwnd; got != 30 {
		t.Errorf("cwnd after loss = %v, want 30", got)
	}
	f.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: false})
	if got := f.cwnd; got != 30 {
		t.Error("same-epoch loss halved twice")
	}
}

func TestWindowFloor(t *testing.T) {
	f := newSender(1500)
	f.Restart(100*time.Millisecond, 2)
	drive(f, 0, 500*time.Millisecond, 10) // massive queueing
	if got := f.cwnd; got < 2 {
		t.Errorf("cwnd fell below floor: %v", got)
	}
}

func TestNoPacing(t *testing.T) {
	f := newSender(0)
	if f.PacingRate() != 0 || f.Window() <= 0 {
		t.Error("FAST must be window-based, ACK-clocked")
	}
}
