package faults

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/sim"
)

// probeFunc adapts a closure to obs.Probe for tests.
type probeFunc func(obs.Event)

func (f probeFunc) Emit(e obs.Event) { f(e) }

func TestGEConfigMeanLoss(t *testing.T) {
	cfg := GEConfig{PGoodToBad: 0.008, PBadToGood: 0.2, PDropBad: 0.5}
	want := 0.008 / (0.008 + 0.2) * 0.5
	if got := cfg.MeanLoss(); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanLoss = %g, want %g", got, want)
	}
	// Degenerate chain: no transitions, always Good.
	still := GEConfig{PDropGood: 0.1}
	if got := still.MeanLoss(); got != 0.1 {
		t.Errorf("static-chain MeanLoss = %g, want PDropGood", got)
	}
}

func TestGEConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  GEConfig
		ok   bool
	}{
		{"reference", GEConfig{PGoodToBad: 0.008, PBadToGood: 0.2, PDropBad: 0.5}, true},
		{"absorbing bad", GEConfig{PGoodToBad: 0.01, PBadToGood: 0, PDropBad: 0.5}, false},
		{"probability above 1", GEConfig{PGoodToBad: 1.5, PBadToGood: 0.2, PDropBad: 0.5}, false},
		{"negative probability", GEConfig{PGoodToBad: 0.01, PBadToGood: -0.1, PDropBad: 0.5}, false},
		{"all zero", GEConfig{}, true},
		{"NaN probability", GEConfig{PGoodToBad: 0.01, PBadToGood: 0.2, PDropBad: math.NaN()}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestGEGateStationaryLoss pushes enough packets through the reference
// chain that the empirical loss rate must approach the closed-form
// stationary rate, and bursts must actually occur.
func TestGEGateStationaryLoss(t *testing.T) {
	cfg := GEConfig{PGoodToBad: 0.008, PBadToGood: 0.2, PDropBad: 0.5}
	g := NewGEGate(cfg, rand.New(rand.NewSource(7)), func(packet.Packet) {})
	const n = 200000
	for i := 0; i < n; i++ {
		g.Send(packet.Packet{Seq: int64(i), Size: 1500})
	}
	if g.Passed+g.Dropped != n {
		t.Fatalf("Passed %d + Dropped %d != %d sent", g.Passed, g.Dropped, n)
	}
	got := float64(g.Dropped) / n
	want := cfg.MeanLoss()
	if got < 0.5*want || got > 1.5*want {
		t.Errorf("empirical loss %g not within 50%% of stationary %g", got, want)
	}
	if g.BadEntries == 0 {
		t.Errorf("no bursts started over %d packets", n)
	}
	// Mean burst length 1/PBadToGood = 5: entries should be far fewer than
	// drops×2 but nonzero; sanity bound against a degenerate chain.
	if g.BadEntries > g.Dropped {
		t.Errorf("BadEntries %d > Dropped %d: bursts are not bursty", g.BadEntries, g.Dropped)
	}
}

// TestGEGateBurstiness verifies drops cluster: the probability that the
// packet after a drop is also dropped must far exceed the stationary rate.
func TestGEGateBurstiness(t *testing.T) {
	cfg := GEConfig{PGoodToBad: 0.008, PBadToGood: 0.2, PDropBad: 0.5}
	g := NewGEGate(cfg, rand.New(rand.NewSource(11)), func(packet.Packet) {})
	const n = 200000
	prevDropped := false
	var afterDrop, afterDropDropped int64
	for i := 0; i < n; i++ {
		before := g.Dropped
		g.Send(packet.Packet{Seq: int64(i), Size: 1500})
		dropped := g.Dropped > before
		if prevDropped {
			afterDrop++
			if dropped {
				afterDropDropped++
			}
		}
		prevDropped = dropped
	}
	if afterDrop == 0 {
		t.Fatal("no drops observed")
	}
	condLoss := float64(afterDropDropped) / float64(afterDrop)
	if condLoss < 3*cfg.MeanLoss() {
		t.Errorf("P(drop|prev drop) = %g, want well above stationary %g (bursty)",
			condLoss, cfg.MeanLoss())
	}
}

// TestGEGateDeterminism: the gate is a pure function of its RNG stream.
func TestGEGateDeterminism(t *testing.T) {
	run := func() (int64, int64, int64) {
		g := NewGEGate(GEConfig{PGoodToBad: 0.01, PBadToGood: 0.25, PDropBad: 0.6},
			rand.New(rand.NewSource(42)), func(packet.Packet) {})
		for i := 0; i < 50000; i++ {
			g.Send(packet.Packet{Seq: int64(i), Size: 1500})
		}
		return g.Passed, g.Dropped, g.BadEntries
	}
	p1, d1, b1 := run()
	p2, d2, b2 := run()
	if p1 != p2 || d1 != d2 || b1 != b2 {
		t.Errorf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", p1, d1, b1, p2, d2, b2)
	}
}

func TestGEGateDropEvents(t *testing.T) {
	s := sim.New(1)
	g := NewGEGate(GEConfig{PGoodToBad: 1, PBadToGood: 0, PDropBad: 1},
		rand.New(rand.NewSource(1)), func(packet.Packet) { t.Error("packet passed an always-drop gate") })
	// PBadToGood 0 fails Validate but exercises the pure chain: first Send
	// transitions to Bad and drops everything after.
	var drops []obs.Event
	g.SetProbe(s, probeFunc(func(e obs.Event) {
		if e.Type == obs.EvDrop {
			drops = append(drops, e)
		}
	}))
	s.At(0, func() { g.Send(packet.Packet{Flow: 3, Seq: 99, Size: 1500}) })
	s.Run(time.Millisecond)
	if len(drops) != 1 {
		t.Fatalf("drop events = %d, want 1", len(drops))
	}
	if e := drops[0]; e.Flow != 3 || e.Seq != 99 || e.Queue != -1 {
		t.Errorf("drop event = %+v, want flow 3 seq 99 queue -1", e)
	}
	if !g.bad {
		t.Errorf("gate not in Bad state after forced transition")
	}
}

// TestReordererDisplacementBounded: every packet arrives, each either on
// time or exactly Delay late, and some are overtaken.
func TestReordererDisplacementBounded(t *testing.T) {
	s := sim.New(1)
	type arrival struct {
		seq int64
		at  time.Duration
	}
	var got []arrival
	r := NewReorderer(ReorderConfig{P: 0.5, Delay: 5 * time.Millisecond},
		rand.New(rand.NewSource(3)), s, func(p packet.Packet) {
			got = append(got, arrival{p.Seq, s.Now()})
		})
	const n = 200
	sentAt := make(map[int64]time.Duration, n)
	for i := 0; i < n; i++ {
		i := i
		at := time.Duration(i) * time.Millisecond
		sentAt[int64(i)] = at
		s.At(at, func() { r.Send(packet.Packet{Seq: int64(i), Size: 1500}) })
	}
	s.Run(time.Second)
	if len(got) != n {
		t.Fatalf("arrivals = %d, want %d", len(got), n)
	}
	inversions := 0
	for i := 1; i < len(got); i++ {
		if got[i].seq < got[i-1].seq {
			inversions++
		}
	}
	if inversions == 0 {
		t.Errorf("no reordering observed with P=0.5, delay > spacing")
	}
	deferred := 0
	for _, a := range got {
		switch late := a.at - sentAt[a.seq]; late {
		case 0:
		case 5 * time.Millisecond:
			deferred++
		default:
			t.Errorf("seq %d displaced by %v, want 0 or 5ms", a.seq, late)
		}
	}
	if deferred == 0 || deferred == n {
		t.Errorf("%d of %d packets deferred: want some but not all at P=0.5", deferred, n)
	}
}

// TestDuplicator: at P = 1 every packet is followed by its copy; at P = 0
// nothing is copied.
func TestDuplicator(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{1, 20}, {0, 10}} {
		var out []packet.Packet
		d := NewDuplicator(DupConfig{P: c.p}, rand.New(rand.NewSource(1)),
			func(p packet.Packet) { out = append(out, p) })
		for i := 0; i < 10; i++ {
			d.Send(packet.Packet{Seq: int64(i), Size: 1500})
		}
		if len(out) != c.want {
			t.Fatalf("P=%g: forwarded %d packets, want %d", c.p, len(out), c.want)
		}
		if c.p == 1 {
			for i := 0; i < len(out); i += 2 {
				if out[i+1] != out[i] || out[i].Seq != int64(i/2) {
					t.Errorf("packets %d, %d = %+v, %+v: want seq %d and its copy", i, i+1, out[i], out[i+1], i/2)
				}
			}
		}
	}
}
