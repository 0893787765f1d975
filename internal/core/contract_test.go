package core

import (
	"os"
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/cca/algo1"
	_ "starvation/internal/cca/allegro"
	_ "starvation/internal/cca/cubic"
	_ "starvation/internal/cca/reno"
	"starvation/internal/units"
)

// TestContractCoverage: every CCA declares its contract. It reads the CCA
// packages from the source tree as well as the registry, so a new package
// fails here even before a test imports it.
func TestContractCoverage(t *testing.T) {
	names := cca.Names()
	dirs, err := os.ReadDir("../cca")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() {
			names = append(names, d.Name())
		}
	}
	for _, name := range names {
		if _, ok := contracts[name]; !ok {
			t.Errorf("CCA %q has no entry in contracts", name)
		}
	}
	for name := range contracts {
		if cca.Lookup(name) == nil {
			t.Errorf("contracts lists %q, which is not a registered CCA", name)
		}
	}
}

func TestVegasEquilibriumRTT(t *testing.T) {
	// §4.1's example: α = 4 packets of 1500 bytes. At 96 Mbit/s that is
	// 0.5 ms of queueing; at 960 Mbit/s, 0.05 ms. n flows queue n·α.
	for _, tc := range []struct {
		c    units.Rate
		pkts float64
		want time.Duration
	}{
		{units.Mbps(96), 4, 500 * time.Microsecond},
		{units.Mbps(960), 4, 50 * time.Microsecond},
		{units.Mbps(96), 2 * 4, time.Millisecond},
	} {
		if got := queueDelay(tc.c, tc.pkts); got != tc.want {
			t.Errorf("%v packets at %v queue %v, want %v", tc.pkts, tc.c, got, tc.want)
		}
	}
	// Vegas's band spans α..β packets, FAST's is the single point α.
	rm := 100 * time.Millisecond
	if lo, hi := contracts["vegas"].band(units.Mbps(96), rm); lo != rm+375*time.Microsecond || hi != rm+625*time.Microsecond {
		t.Errorf("vegas band at 96 Mbit/s = [%v, %v], want Rm + [0.375ms, 0.625ms]", lo, hi)
	}
	if lo, hi := contracts["fast"].band(units.Mbps(96), rm); lo != rm+500*time.Microsecond || hi != lo {
		t.Errorf("fast band at 96 Mbit/s = [%v, %v], want Rm + 0.5ms", lo, hi)
	}
}

func TestBBRPacingDelayRange(t *testing.T) {
	lo, hi := contracts["bbr"].band(units.Mbps(24), 100*time.Millisecond)
	if lo != 100*time.Millisecond || hi != 125*time.Millisecond {
		t.Errorf("pacing range = [%v, %v], want [100ms, 125ms]", lo, hi)
	}
}

func TestVivaceDelayRange(t *testing.T) {
	lo, hi := contracts["vivace"].band(units.Mbps(24), 100*time.Millisecond)
	if lo != 100*time.Millisecond || hi != 105*time.Millisecond {
		t.Errorf("vivace range = [%v, %v], want [100ms, 105ms]", lo, hi)
	}
}

func TestCopaDelayRangeShrinksWithRate(t *testing.T) {
	lo1, hi1 := contracts["copa"].band(units.Mbps(1), 100*time.Millisecond)
	lo2, hi2 := contracts["copa"].band(units.Mbps(100), 100*time.Millisecond)
	if hi2-lo2 >= hi1-lo1 {
		t.Errorf("Copa δ(C) must shrink with C: δ(1M)=%v δ(100M)=%v", hi1-lo1, hi2-lo2)
	}
	if lo1 < 100*time.Millisecond {
		t.Error("delay below Rm")
	}
	// 1/δ = 2 packets ± 4, floored at an empty queue: [Rm, Rm + 6 packets].
	if lo, hi := contracts["copa"].band(units.Mbps(24), 100*time.Millisecond); lo != 100*time.Millisecond || hi != 103*time.Millisecond {
		t.Errorf("copa band at 24 Mbit/s = [%v, %v], want [100ms, 103ms]", lo, hi)
	}
}

// TestExponentialRateDelayMatchesAlgo1 checks Algorithm 1's contract
// against the CCA itself: at the predicted low end the target rate is C,
// so a flow just below C speeds up a hair below that delay and one just
// above C slows down a hair above it.
func TestExponentialRateDelayMatchesAlgo1(t *testing.T) {
	rm := 50 * time.Millisecond
	// μ−·2^11: 10 ms of queueing, since (120 − 10)/10 = 11.
	c := algo1.DefaultMuMin * 2048
	lo, hi := contracts["algo1"].band(c, rm)
	if d := lo - (rm + 10*time.Millisecond); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("dmin at %v = %v, want Rm + 10ms", c, lo)
	}
	if hi <= lo {
		t.Errorf("band [%v, %v] empty: a decrease to B·C must move the target delay up", lo, hi)
	}
	step := func(rate units.Rate, rtt time.Duration) units.Rate {
		a := algo1.New(algo1.Config{Rm: rm, InitialRate: rate})
		a.OnAck(cca.AckSignal{Now: rtt, RTT: rtt})
		a.OnTick(rtt)
		return a.PacingRate()
	}
	below, above := units.Rate(0.99*float64(c)), units.Rate(1.01*float64(c))
	if got := step(below, lo-100*time.Microsecond); got <= below {
		t.Errorf("rate %v at RTT just under dmin: %v, want an increase", below, got)
	}
	if got := step(above, lo+100*time.Microsecond); got >= above {
		t.Errorf("rate %v at RTT just over dmin: %v, want a decrease", above, got)
	}
}
