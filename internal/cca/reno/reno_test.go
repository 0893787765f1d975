package reno

import (
	"testing"
	"time"

	"starvation/internal/cca"
)

func ack(now time.Duration, rtt time.Duration, bytes int) cca.AckSignal {
	return cca.AckSignal{Now: now, RTT: rtt, AckedBytes: bytes, DeliveredBytes: bytes, Packets: 1}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	r := New(Config{MSS: 1500})
	start := r.cwnd
	// One window's worth of ACKs doubles the window in slow start.
	for acked := 0.0; acked < start; acked += 1500 {
		r.OnAck(ack(time.Duration(acked), 100*time.Millisecond, 1500))
	}
	if got := r.cwnd; got != 2*start {
		t.Errorf("cwnd after one RTT of acks = %v, want %v", got, 2*start)
	}
}

func TestCongestionAvoidanceLinear(t *testing.T) {
	r := New(Config{MSS: 1500})
	// Force CA by taking a loss first.
	r.OnLoss(cca.LossSignal{Now: 0, Bytes: 1500, NewEvent: true})
	w0 := r.cwnd
	// One full window of ACKs grows cwnd by ~1 MSS.
	for acked := 0.0; acked < w0; acked += 1500 {
		r.OnAck(ack(time.Second, 100*time.Millisecond, 1500))
	}
	growth := r.cwnd - w0
	// Slightly under one MSS because the denominator grows within the RTT.
	if growth < 1300 || growth > 1600 {
		t.Errorf("CA growth per RTT = %v, want ~1 MSS", growth)
	}
}

func TestMultiplicativeDecrease(t *testing.T) {
	r := New(Config{MSS: 1500})
	r.cwnd = 20 * 1500
	w0 := r.cwnd
	r.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true})
	if got := r.cwnd; got != w0/2 {
		t.Errorf("cwnd after loss = %v, want %v", got, w0/2)
	}
}

func TestNonNewEventLossIgnored(t *testing.T) {
	r := New(Config{MSS: 1500})
	r.cwnd = 20 * 1500
	r.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true})
	w := r.cwnd
	r.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: false})
	if r.cwnd != w {
		t.Error("same-epoch loss halved cwnd twice")
	}
}

func TestOncePerRTTDecrease(t *testing.T) {
	r := New(Config{MSS: 1500})
	r.cwnd = 64 * 1500
	r.OnAck(ack(0, 100*time.Millisecond, 1500)) // establish lastRTT
	r.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true})
	w := r.cwnd
	// A second "new" event within the same RTT is treated as the same
	// congestion episode.
	r.OnLoss(cca.LossSignal{Now: time.Second + 10*time.Millisecond, Bytes: 1500, NewEvent: true})
	if r.cwnd != w {
		t.Errorf("cwnd halved twice within one RTT: %v -> %v", w, r.cwnd)
	}
	// After an RTT has passed, a new event does reduce again.
	r.OnLoss(cca.LossSignal{Now: time.Second + 200*time.Millisecond, Bytes: 1500, NewEvent: true})
	if r.cwnd >= w {
		t.Error("decrease suppressed after a full RTT")
	}
}

func TestTimeoutCollapsesWindow(t *testing.T) {
	r := New(Config{MSS: 1500})
	r.cwnd = 64 * 1500
	r.OnLoss(cca.LossSignal{Now: time.Second, Bytes: 1500, NewEvent: true, Timeout: true})
	if got := r.Window(); got != 1500 {
		t.Errorf("cwnd after timeout = %v, want 1 MSS", got)
	}
}

func TestFloorAtTwoMSS(t *testing.T) {
	r := New(Config{MSS: 1500})
	r.cwnd = 2 * 1500
	for i := 0; i < 10; i++ {
		r.OnLoss(cca.LossSignal{Now: time.Duration(i) * time.Second, Bytes: 1500, NewEvent: true})
	}
	if got := r.cwnd; got < 2*1500 {
		t.Errorf("cwnd fell below 2 MSS: %v", got)
	}
}

func TestECNReaction(t *testing.T) {
	r := New(Config{MSS: 1500, ReactToECN: true})
	r.cwnd = 20 * 1500
	w0 := r.cwnd
	r.OnAck(cca.AckSignal{Now: time.Second, RTT: 100 * time.Millisecond, AckedBytes: 1500, ECE: true})
	if r.cwnd >= w0 {
		t.Error("ECE did not reduce cwnd with ReactToECN")
	}
	r2 := New(Config{MSS: 1500})
	r2.cwnd = 20 * 1500
	r2.OnAck(cca.AckSignal{Now: time.Second, RTT: 100 * time.Millisecond, AckedBytes: 1500, ECE: true})
	if r2.cwnd < w0 {
		t.Error("ECE reduced cwnd without ReactToECN")
	}
}

func TestNoPacing(t *testing.T) {
	r := New(Config{})
	if r.PacingRate() != 0 {
		t.Error("Reno must be purely ACK-clocked")
	}
	if r.Name() != "reno" {
		t.Error("name mismatch")
	}
}

func TestRegistry(t *testing.T) {
	f := cca.Lookup("reno")
	if f == nil {
		t.Fatal("reno not registered")
	}
	alg := f(1500, nil)
	if alg.Name() != "reno" {
		t.Error("registry returned wrong algorithm")
	}
}
