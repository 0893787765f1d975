package ledbat

import (
	"testing"
	"time"

	"starvation/internal/cca"
)

func drive(l *Ledbat, start, rtt time.Duration, epochs int) time.Duration {
	now := start
	for e := 0; e < epochs; e++ {
		acks := int(l.cwnd)
		if acks < 1 {
			acks = 1
		}
		per := rtt / time.Duration(acks)
		for i := 0; i < acks; i++ {
			now += per
			l.OnAck(cca.AckSignal{Now: now, RTT: rtt, AckedBytes: l.cfg.MSS, Packets: 1})
		}
	}
	return now
}

func TestGrowsBelowTarget(t *testing.T) {
	l := New(Config{MSS: 1500})
	l.OnAck(cca.AckSignal{Now: 0, RTT: 100 * time.Millisecond}) // base
	w0 := l.cwnd
	// Queueing 0 ≪ target: full gain, +1 pkt per RTT.
	drive(l, time.Millisecond, 100*time.Millisecond, 6)
	got := l.cwnd - w0
	if got < 4 || got > 6 {
		t.Errorf("growth over ~5 evaluations = %v, want ~5", got)
	}
}

func TestHoldsAtTarget(t *testing.T) {
	l := New(Config{MSS: 1500, Target: 25 * time.Millisecond})
	l.OnAck(cca.AckSignal{Now: 0, RTT: 100 * time.Millisecond})
	l.cwnd = 50
	// Queueing exactly at target: zero error. The very first evaluation
	// still consumes the 100ms base-setting sample (+1 packet); after
	// that the window must freeze.
	drive(l, time.Millisecond, 125*time.Millisecond, 3)
	after := l.cwnd
	drive(l, time.Second, 125*time.Millisecond, 8)
	if got := l.cwnd; got != after {
		t.Errorf("cwnd moved at target: %v -> %v", after, got)
	}
}

func TestShrinksAboveTarget(t *testing.T) {
	l := New(Config{MSS: 1500, Target: 25 * time.Millisecond})
	l.OnAck(cca.AckSignal{Now: 0, RTT: 100 * time.Millisecond})
	l.cwnd = 50
	// Queueing 75ms = 3× target: error −2 → −2 pkts per RTT.
	drive(l, time.Millisecond, 175*time.Millisecond, 5)
	got := l.cwnd
	if got >= 50 || got < 40 {
		t.Errorf("cwnd = %v, want ~50-2·4=42", got)
	}
}

func TestDecreaseUncapped(t *testing.T) {
	// Unlike the capped increase, a huge queueing excess shrinks fast.
	l := New(Config{MSS: 1500, Target: 25 * time.Millisecond})
	l.OnAck(cca.AckSignal{Now: 0, RTT: 100 * time.Millisecond})
	l.cwnd = 100
	drive(l, time.Millisecond, 600*time.Millisecond, 5)
	if got := l.cwnd; got > 70 {
		t.Errorf("cwnd = %v after gross excess, want fast drain", got)
	}
}

func TestBasePoisoning(t *testing.T) {
	// The §5.1 weakness, LEDBAT edition: one low base sample inflates the
	// queueing estimate by the dip forever.
	l := New(Config{MSS: 1500, Target: 5 * time.Millisecond})
	l.cwnd = 100
	l.OnAck(cca.AckSignal{Now: 0, RTT: 95 * time.Millisecond}) // poisoned base
	// True path floor 100ms, so perceived queueing ≥ 5ms = target even
	// with an empty queue: the controller can never grow.
	before := l.cwnd
	drive(l, time.Millisecond, 101*time.Millisecond, 10)
	if got := l.cwnd; got > before {
		t.Errorf("poisoned LEDBAT grew: %v -> %v", before, got)
	}
}

func TestLossHalves(t *testing.T) {
	l := New(Config{MSS: 1500})
	l.cwnd = 40
	l.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true})
	if got := l.cwnd; got != 20 {
		t.Errorf("cwnd after loss = %v, want 20", got)
	}
	l.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: false})
	if got := l.cwnd; got != 20 {
		t.Error("same-epoch loss halved twice")
	}
}

func TestWindowedBaseExpires(t *testing.T) {
	l := New(Config{MSS: 1500, baseWindow: 10 * time.Second})
	l.OnAck(cca.AckSignal{Now: 0, RTT: 90 * time.Millisecond})
	l.OnAck(cca.AckSignal{Now: time.Second, RTT: 100 * time.Millisecond})
	if got := l.baseDelay(); got != 90*time.Millisecond {
		t.Errorf("base = %v, want 90ms", got)
	}
	l.OnAck(cca.AckSignal{Now: 15 * time.Second, RTT: 100 * time.Millisecond})
	if got := l.baseDelay(); got != 100*time.Millisecond {
		t.Errorf("base = %v after expiry, want 100ms", got)
	}
}

func TestRegistry(t *testing.T) {
	if f := cca.Lookup("ledbat"); f == nil || f(1500, nil).Name() != "ledbat" {
		t.Fatal("ledbat not registered correctly")
	}
}
