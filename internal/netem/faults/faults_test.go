package faults

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/sim"
	"starvation/internal/units"

	"starvation/internal/netem"
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
	}
	for _, c := range cases {
		if err := c.cfg.validate(); (err == nil) != c.ok {
			t.Errorf("%s: validate() = %v, want ok=%v", c.name, err, c.ok)
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

// TestReordererDisplacementBounded: every deferred packet arrives exactly
// Delay late and the held gauge returns to zero.
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
	if r.Held() != 0 {
		t.Errorf("Held = %d after drain, want 0", r.Held())
	}
	if r.Deferred == 0 || r.Passed == 0 {
		t.Fatalf("Deferred %d / Passed %d: want both nonzero at P=0.5", r.Deferred, r.Passed)
	}
	if r.Deferred+r.Passed != n {
		t.Errorf("Deferred %d + Passed %d != %d", r.Deferred, r.Passed, n)
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
	for _, a := range got {
		if late := a.at - sentAt[a.seq]; late < 0 || late > 5*time.Millisecond {
			t.Errorf("seq %d displaced by %v, bound is 5ms", a.seq, late)
		}
	}
}

func TestDuplicator(t *testing.T) {
	s := sim.New(1)
	var out []packet.Packet
	d := NewDuplicator(DupConfig{P: 1}, rand.New(rand.NewSource(1)),
		func(p packet.Packet) { out = append(out, p) })
	var dupEvents int
	d.SetProbe(s, probeFunc(func(e obs.Event) {
		if e.Type == obs.EvDup {
			if !e.Dup {
				t.Errorf("EvDup event without Dup flag: %+v", e)
			}
			dupEvents++
		}
	}))
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			d.Send(packet.Packet{Seq: int64(i), Size: 1500})
		}
	})
	s.Run(time.Millisecond)
	if len(out) != 20 {
		t.Fatalf("forwarded %d packets, want 20 (P=1 duplicates all)", len(out))
	}
	if d.Passed != 10 || d.Duplicated != 10 || dupEvents != 10 {
		t.Errorf("Passed %d Duplicated %d events %d, want 10/10/10", d.Passed, d.Duplicated, dupEvents)
	}
	for i := 0; i < len(out); i += 2 {
		if out[i].Dup {
			t.Errorf("original %d carries Dup", out[i].Seq)
		}
		if !out[i+1].Dup || out[i+1].Seq != out[i].Seq {
			t.Errorf("copy of %d = %+v, want same seq with Dup", out[i].Seq, out[i+1])
		}
	}
}

// TestRateScheduleStep: a mid-transmission rate halving rescales the head
// packet's remaining serialization and requeues the rest at the new rate.
func TestRateScheduleStep(t *testing.T) {
	s := sim.New(1)
	var deliveries []time.Duration
	l := netem.NewLink(s, units.Mbps(12), 0, func(packet.Packet) {
		deliveries = append(deliveries, s.Now())
	})
	sched := &RateSchedule{Steps: []RateStep{{At: 500 * time.Microsecond, Rate: units.Mbps(6)}}}
	if err := sched.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	sched.Apply(s, l)
	s.At(0, func() {
		for i := 0; i < 3; i++ {
			l.Enqueue(packet.Packet{Seq: int64(i), Size: 1500}) // 1ms each at 12Mbps
		}
	})
	s.Run(time.Second)
	// Head: 0.5ms transmitted at 12Mbps, remaining 0.5ms doubles → 1.5ms.
	// Next two serialize at 6Mbps (2ms each): 3.5ms, 5.5ms.
	want := []time.Duration{1500 * time.Microsecond, 3500 * time.Microsecond, 5500 * time.Microsecond}
	if len(deliveries) != len(want) {
		t.Fatalf("deliveries = %v, want %v", deliveries, want)
	}
	for i := range want {
		if deliveries[i] != want[i] {
			t.Errorf("delivery %d at %v, want %v", i, deliveries[i], want[i])
		}
	}
	if l.RateChanges != 1 {
		t.Errorf("RateChanges = %d, want 1", l.RateChanges)
	}
}

// TestFlapHoldsAndReleases: packets enqueued during an outage are held,
// not dropped, and drain after capacity is restored.
func TestFlapHoldsAndReleases(t *testing.T) {
	s := sim.New(1)
	var deliveries []time.Duration
	l := netem.NewLink(s, units.Mbps(12), 0, func(packet.Packet) {
		deliveries = append(deliveries, s.Now())
	})
	flap(20*time.Millisecond, 5*time.Millisecond).Apply(s, l)
	// Enqueued at 21ms: mid-outage (down 20–25ms), held until restore.
	s.At(21*time.Millisecond, func() { l.Enqueue(packet.Packet{Size: 1500}) })
	s.Run(30 * time.Millisecond)
	if len(deliveries) != 1 {
		t.Fatalf("deliveries = %v, want exactly 1", deliveries)
	}
	if got, want := deliveries[0], 26*time.Millisecond; got != want {
		t.Errorf("held packet delivered at %v, want %v (restore + 1ms tx)", got, want)
	}
	if l.Rate() != units.Mbps(12) {
		t.Errorf("rate after flap = %v, want restored 12Mbps", l.Rate())
	}
}

func TestRateScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		rs   *RateSchedule
		ok   bool
	}{
		{"nil", nil, true},
		{"flap", flap(5*time.Second, 200*time.Millisecond), true},
		{"empty", &RateSchedule{}, false},
		{"negative repeat", &RateSchedule{Repeat: -1, Steps: []RateStep{{At: 1}}}, false},
		{"non-ascending", &RateSchedule{Steps: []RateStep{{At: 2}, {At: 1}}}, false},
		{"negative rate", &RateSchedule{Steps: []RateStep{{At: 1, Rate: -5}}}, false},
		{"restore sentinel ok", &RateSchedule{Steps: []RateStep{{At: 1, Rate: restore}}}, true},
	}
	for _, c := range cases {
		if err := c.rs.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestParseProfile(t *testing.T) {
	p, err := ParseProfile("ge:0.008,0.2,0.5;reorder:0.02,8ms;dup:0.01;flap:5s,200ms")
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	if p.Flow.GE == nil || p.Flow.GE.PGoodToBad != 0.008 || p.Flow.GE.PDropBad != 0.5 {
		t.Errorf("GE = %+v", p.Flow.GE)
	}
	if p.Flow.Reorder == nil || p.Flow.Reorder.Delay != 8*time.Millisecond {
		t.Errorf("Reorder = %+v", p.Flow.Reorder)
	}
	if p.Flow.Duplicate == nil || p.Flow.Duplicate.P != 0.01 {
		t.Errorf("Duplicate = %+v", p.Flow.Duplicate)
	}
	if p.Link == nil || p.Link.Repeat != 5*time.Second {
		t.Errorf("Link = %+v", p.Link)
	}

	p, err = ParseProfile("rate:0s=48,10s=6,20s=base")
	if err != nil {
		t.Fatalf("ParseProfile rate: %v", err)
	}
	if len(p.Link.Steps) != 3 || p.Link.Steps[2].Rate != restore {
		t.Errorf("rate steps = %+v, want 3 with restore last", p.Link.Steps)
	}
	if p.Link.Steps[1].Rate != units.Mbps(6) {
		t.Errorf("step 1 rate = %v, want 6Mbps", p.Link.Steps[1].Rate)
	}

	bad := []struct{ spec, wantErr string }{
		{"nonsense", "not kind:args"},
		{"warp:1", "unknown clause kind"},
		{"ge:0.5", "wants pG2B"},
		{"ge:a,b,c", "bad probability"},
		{"ge:0.5,0,0.5", "absorb"},
		{"reorder:0.5", "wants p,delay"},
		{"reorder:0.5,0s", "Delay must be positive"},
		{"dup:2", "must be in [0, 1]"},
		{"flap:1s,2s", "downFor must be in"},
		{"flap:1s,200ms;rate:0s=5", "exclusive"},
		{"rate:0s=5,0s=6", "not after previous"},
		{"rate:0s=-3", "negative rate"},
	}
	for _, c := range bad {
		_, err := ParseProfile(c.spec)
		if err == nil {
			t.Errorf("ParseProfile(%q) accepted, want error containing %q", c.spec, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseProfile(%q) error %q, want substring %q", c.spec, err, c.wantErr)
		}
	}
}

func TestSpecEmptyAndValidate(t *testing.T) {
	var s *Spec
	if !s.Empty() || s.Validate() != nil {
		t.Errorf("nil spec must be empty and valid")
	}
	s = &Spec{}
	if !s.Empty() {
		t.Errorf("zero spec must be empty")
	}
	s = &Spec{GE: &GEConfig{PGoodToBad: 2}}
	if s.Empty() || s.Validate() == nil {
		t.Errorf("invalid GE spec must be non-empty and invalid")
	}
}
