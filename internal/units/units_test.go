package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRateConstructors(t *testing.T) {
	cases := []struct {
		got  Rate
		want float64 // bits per second
	}{
		{Mbps(1), 1e6},
		{Mbps(120), 120e6},
		{Gbps(1), 1e9},
		{Gbps(2.5), 2.5e9},
	}
	for _, c := range cases {
		if float64(c.got) != c.want {
			t.Errorf("got %v bits/s, want %v", float64(c.got), c.want)
		}
	}
}

func TestTxTime(t *testing.T) {
	// 1500 bytes at 12 Mbit/s = 1 ms exactly.
	if got := Mbps(12).TxTime(1500); got != time.Millisecond {
		t.Errorf("TxTime(1500) at 12 Mbit/s = %v, want 1ms", got)
	}
	// 1500 bytes at 120 Mbit/s = 100 µs.
	if got := Mbps(120).TxTime(1500); got != 100*time.Microsecond {
		t.Errorf("TxTime(1500) at 120 Mbit/s = %v, want 100µs", got)
	}
	if got := Rate(0).TxTime(1500); got != 0 {
		t.Errorf("zero rate TxTime = %v, want 0 (unlimited)", got)
	}
	if got := Rate(-5).TxTime(1500); got != 0 {
		t.Errorf("negative rate TxTime = %v, want 0", got)
	}
}

func TestBytesIn(t *testing.T) {
	if got := BDPBytes(Mbps(8), time.Second); got != 1_000_000 {
		t.Errorf("8 Mbit/s over 1s = %d bytes, want 1000000", got)
	}
	if got := BDPBytes(Mbps(8), 0); got != 0 {
		t.Errorf("zero duration = %d bytes, want 0", got)
	}
	if got := BDPBytes(0, time.Second); got != 0 {
		t.Errorf("zero rate = %d bytes, want 0", got)
	}
}

func TestRateFromBytes(t *testing.T) {
	if got := RateFromBytes(1_000_000, time.Second); got != Mbps(8) {
		t.Errorf("1MB/s = %v, want 8 Mbit/s", got)
	}
	if got := RateFromBytes(100, 0); got != 0 {
		t.Errorf("zero duration rate = %v, want 0", got)
	}
	if got := RateFromBytes(100, -time.Second); got != 0 {
		t.Errorf("negative duration rate = %v, want 0", got)
	}
}

func TestBDP(t *testing.T) {
	// 120 Mbit/s × 40 ms = 600000 bytes.
	if got := BDPBytes(Mbps(120), 40*time.Millisecond); got != 600_000 {
		t.Errorf("BDPBytes = %d, want 600000", got)
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		r    Rate
		want string
	}{
		{Gbps(2), "2 Gbit/s"},
		{Mbps(120), "120 Mbit/s"},
		{Rate(64e3), "64 Kbit/s"},
		{Rate(500), "500 bit/s"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("String(%v bits/s) = %q, want %q", float64(c.r), got, c.want)
		}
	}
}

// Property: TxTime and RateFromBytes are inverses for positive inputs.
func TestQuickTxTimeRoundTrip(t *testing.T) {
	f := func(mbps uint16, pkts uint8) bool {
		rate := Mbps(float64(mbps%1000) + 1)
		bytes := (int(pkts) + 1) * 1500
		d := rate.TxTime(bytes)
		back := RateFromBytes(bytes, d)
		// Nanosecond truncation bounds the round-trip error.
		return math.Abs(float64(back)-float64(rate))/float64(rate) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the bytes a rate delivers (BDPBytes) are monotone in duration.
func TestQuickBytesInMonotone(t *testing.T) {
	f := func(mbps uint16, msA, msB uint16) bool {
		rate := Mbps(float64(mbps%1000) + 1)
		a := time.Duration(msA) * time.Millisecond
		b := time.Duration(msB) * time.Millisecond
		if a > b {
			a, b = b, a
		}
		return BDPBytes(rate, a) <= BDPBytes(rate, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
