package network

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/guard"
	"starvation/internal/netem/faults"
	"starvation/internal/units"
)

// sessionScenario builds a small two-flow contest whose realization varies
// with seed and rate, for reuse-vs-fresh comparisons.
func sessionScenario(seed int64, rate units.Rate) goldenConfig {
	return goldenConfig{
		cfg: Config{Rate: rate, BufferBytes: 32 * 1500, Seed: seed},
		specs: []FlowSpec{
			{Alg: vegas.New(vegas.Config{}), Rm: 20 * time.Millisecond},
			{Alg: vegas.New(vegas.Config{}), Rm: 60 * time.Millisecond},
		},
		d: 2 * time.Second,
	}
}

// TestSessionFreshVsReusedParity is the session's correctness contract: a
// realization run through a reused session hashes bit-identically to the
// same configuration run through a fresh network.New — across repeated
// passes, interleaved shapes (the cache cycles between the clean and
// impaired golden scenarios), and with telemetry on. It also pins result
// detachment: an earlier pass's Result must hash the same after later runs
// recycle the session's buffers.
func TestSessionFreshVsReusedParity(t *testing.T) {
	for _, tc := range []*TelemetryConfig{nil, {}} {
		name := "plain"
		if tc != nil {
			name = "telemetry"
		}
		t.Run(name, func(t *testing.T) {
			fresh := map[string]string{}
			for sc, run := range goldenScenarios(tc) {
				fresh[sc] = hashResult(t, run())
			}
			s := NewSession()
			held := map[string]*Result{}
			for pass := 0; pass < 3; pass++ {
				for sc, build := range goldenConfigs(tc) {
					gc := build()
					res, err := s.Run(gc.cfg, gc.d, gc.specs...)
					if err != nil {
						t.Fatalf("pass %d %s: %v", pass, sc, err)
					}
					if h := hashResult(t, res); h != fresh[sc] {
						t.Errorf("pass %d %s: reused session diverged from fresh network: got %s want %s",
							pass, sc, h, fresh[sc])
					}
					if pass == 0 {
						held[sc] = res
					}
				}
			}
			for sc, res := range held {
				if h := hashResult(t, res); h != fresh[sc] {
					t.Errorf("%s: first-pass result was clobbered by later session runs (hash now %s, want %s)",
						sc, h, fresh[sc])
				}
			}
		})
	}
}

// TestSessionParameterChangesReset pins that a shape-stable parameter
// change (seed, rate) fully resets the recycled network: running A, then
// B, then A again through one session reproduces A's fresh hash — no state
// from B leaks into the second A.
func TestSessionParameterChangesReset(t *testing.T) {
	hash := func(gc goldenConfig) string {
		n := New(gc.cfg, gc.specs...)
		return hashResult(t, n.Run(gc.d))
	}
	a := hash(sessionScenario(3, units.Mbps(40)))
	b := hash(sessionScenario(8, units.Mbps(12)))
	if a == b {
		t.Fatal("scenarios A and B should differ")
	}
	s := NewSession()
	for i, want := range []string{a, b, a, b, b, a} {
		gc := sessionScenario(3, units.Mbps(40))
		if want == b {
			gc = sessionScenario(8, units.Mbps(12))
		}
		res, err := s.Run(gc.cfg, gc.d, gc.specs...)
		if err != nil {
			t.Fatal(err)
		}
		if h := hashResult(t, res); h != want {
			t.Errorf("run %d: got %s want %s", i, h, want)
		}
	}
}

// TestSessionGuardParity pins that guarded session runs match guarded
// fresh runs, and that toggling the guard off between runs leaves no
// report behind.
func TestSessionGuardParity(t *testing.T) {
	gopts := &guard.Options{}
	withGuard := func(gc goldenConfig) goldenConfig {
		gc.cfg.Guard = gopts
		return gc
	}
	gc := withGuard(sessionScenario(5, units.Mbps(30)))
	freshRes := New(gc.cfg, gc.specs...).Run(gc.d)
	if freshRes.Guard == nil {
		t.Fatal("fresh guarded run has no guard report")
	}
	fresh := hashResult(t, freshRes)

	s := NewSession()
	for i := 0; i < 3; i++ {
		// Alternate guarded and unguarded runs of the same shape.
		gc := withGuard(sessionScenario(5, units.Mbps(30)))
		res, err := s.Run(gc.cfg, gc.d, gc.specs...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Guard == nil {
			t.Fatalf("run %d: guarded session run has no guard report", i)
		}
		if h := hashResult(t, res); h != fresh {
			t.Errorf("run %d: guarded session diverged: got %s want %s", i, h, fresh)
		}
		plain := sessionScenario(5, units.Mbps(30))
		resPlain, err := s.Run(plain.cfg, plain.d, plain.specs...)
		if err != nil {
			t.Fatal(err)
		}
		if resPlain.Guard != nil {
			t.Fatalf("run %d: unguarded session run reports a guard", i)
		}
	}
}

// TestSessionShapeChangeRebuilds pins the shape predicate, one case per
// component: each impairment element on a flow's chain, the flow count,
// the link count and the path layout wire a distinct network, while a
// parameter-only change — and a nil path spelled out as the full path —
// recycles the one already wired. Every run, whether through the session
// (first and second pass) or through a nil session, must match the hash of
// the same configuration on a fresh network.New.
func TestSessionShapeChangeRebuilds(t *testing.T) {
	base := func() goldenConfig { return sessionScenario(4, units.Mbps(24)) }
	lot := func() goldenConfig { // two-link parking lot, both flows end to end
		gc := base()
		gc.cfg = Config{Links: ParkingLot(2, units.Mbps(24), 32*1500, 2*time.Millisecond), Seed: 4}
		return gc
	}
	cases := []struct {
		name    string
		build   func() goldenConfig
		rewires bool // wires a network no earlier case wired
	}{
		{"base", base, true},
		{"parameters only", func() goldenConfig { return sessionScenario(9, units.Mbps(12)) }, false},
		{"loss gate", func() goldenConfig {
			gc := base()
			gc.specs[0].LossProb = 0.02
			return gc
		}, true},
		{"GE gate", func() goldenConfig {
			gc := base()
			gc.specs[0].GE = &faults.GEConfig{PGoodToBad: 0.005, PBadToGood: 0.3, PDropBad: 0.5}
			return gc
		}, true},
		{"both gates", func() goldenConfig {
			gc := base()
			gc.specs[0].LossProb = 0.02
			gc.specs[0].GE = &faults.GEConfig{PGoodToBad: 0.005, PBadToGood: 0.3, PDropBad: 0.5}
			return gc
		}, true},
		{"same element, other flow", func() goldenConfig {
			gc := base()
			gc.specs[1].LossProb = 0.02
			return gc
		}, true},
		{"flow count", func() goldenConfig {
			gc := base()
			gc.specs = append(gc.specs, FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond})
			return gc
		}, true},
		{"link count", lot, true},
		{"nil path ≡ explicit full path", func() goldenConfig {
			gc := lot()
			gc.specs[0].Path = []int{0, 1}
			return gc
		}, false},
		{"explicit partial path", func() goldenConfig {
			gc := lot()
			gc.specs[1].Path = []int{1}
			return gc
		}, true},
	}
	run := func(s *Session, gc goldenConfig) string {
		res, err := s.Run(gc.cfg, gc.d, gc.specs...)
		if err != nil {
			t.Fatal(err)
		}
		return hashResult(t, res)
	}
	s := NewSession()
	for pass := 0; pass < 2; pass++ {
		for _, tc := range cases {
			gc := tc.build()
			fresh := hashResult(t, New(gc.cfg, gc.specs...).Run(gc.d))
			if pass == 0 {
				if h := run(nil, tc.build()); h != fresh {
					t.Errorf("%s: nil session got %s, fresh network %s", tc.name, h, fresh)
				}
			}
			before := len(s.nets)
			if h := run(s, tc.build()); h != fresh {
				t.Errorf("pass %d %s: session got %s, fresh network %s", pass, tc.name, h, fresh)
			}
			if rewired := len(s.nets) > before; rewired != (tc.rewires && pass == 0) {
				t.Errorf("pass %d %s: wired a new network = %v, want %v", pass, tc.name, rewired, tc.rewires && pass == 0)
			}
		}
	}
}

// TestSessionValidation pins that the session rejects exactly what
// NewChecked rejects, without caching anything for invalid configs.
func TestSessionValidation(t *testing.T) {
	s := NewSession()
	if _, err := s.Run(Config{}, time.Second); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := s.Run(Config{Rate: units.Mbps(10)}, time.Second,
		FlowSpec{Rm: time.Millisecond}); err == nil {
		t.Error("flow without CCA accepted")
	}
	if len(s.nets) != 0 {
		t.Errorf("invalid configs left %d cached networks", len(s.nets))
	}
}

// TestSessionPoolWorkersDeterministic is the concurrency property test:
// many goroutines, one pooled session each, each running every seed of a
// sweep. Under -race this pins single-owner sessions as data-race free,
// and the per-seed hashes must be identical across workers and equal to
// the fresh-network hashes — deterministic results independent of which
// worker (and thus which recycled arena) ran the realization.
func TestSessionPoolWorkersDeterministic(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	fresh := make([]string, len(seeds))
	for i, seed := range seeds {
		gc := sessionScenario(seed, units.Mbps(20))
		fresh[i] = hashResult(t, New(gc.cfg, gc.specs...).Run(gc.d))
	}
	pool := NewSessionPool()
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := pool.Get()
			defer pool.Put(s)
			for i, seed := range seeds {
				gc := sessionScenario(seed, units.Mbps(20))
				res, err := s.Run(gc.cfg, gc.d, gc.specs...)
				if err != nil {
					errs <- fmt.Errorf("worker %d seed %d: %w", w, seed, err)
					return
				}
				if h := hashResultQuiet(res); h != fresh[i] {
					errs <- fmt.Errorf("worker %d seed %d: hash %s, want %s", w, seed, h, fresh[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
