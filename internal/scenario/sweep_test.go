package scenario

import (
	"context"
	"testing"
	"time"

	"starvation/internal/network"
	"starvation/internal/obs"
)

// TestSeedSweepParallelParity checks the sweep contract: the same seeds
// produce the same observables at any jobs value, and results land
// indexed by seed, not by completion order.
func TestSeedSweepParallelParity(t *testing.T) {
	seeds := []int64{2, 3, 4, 5}
	opts := Opts{Duration: 5 * time.Second}
	seq, err := SeedSweep(context.Background(), "allegro-loss", seeds, 1, opts)
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	par, err := SeedSweep(context.Background(), "allegro-loss", seeds, 4, opts)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	for i := range seeds {
		a, b := seq[i].Observables, par[i].Observables
		if len(a) != len(b) {
			t.Fatalf("seed %d: observable sets differ: %v vs %v", seeds[i], a, b)
		}
		for k, v := range a {
			if b[k] != v {
				t.Errorf("seed %d: %s = %v sequential but %v parallel", seeds[i], k, v, b[k])
			}
		}
	}
	// Distinct seeds are distinct realizations; identical observables
	// across the whole sweep would mean the seed never reached the run.
	same := true
	for i := 1; i < len(seq); i++ {
		for k, v := range seq[0].Observables {
			if seq[i].Observables[k] != v {
				same = false
			}
		}
	}
	if same {
		t.Errorf("all %d seeds produced identical observables; seed is not being applied", len(seeds))
	}
}

// TestSeedSweepSessionFreshParity pins the sweep hot path's correctness
// contract end to end: SeedSweep runs every seed through a pooled,
// recycled session, and every observable must still equal a direct
// nil-session (one-shot network) invocation of the scenario — whether the
// pool starts empty or is seeded with a caller's session, which is safe
// at jobs > 1 because one seed at a time owns it. The population scenario
// additionally routes through core.RunPopulation.
func TestSeedSweepSessionFreshParity(t *testing.T) {
	seeds := []int64{2, 5, 9}
	for _, name := range []string{"allegro-loss", "pop-mixed"} {
		for _, sess := range []*network.Session{nil, network.NewSession()} {
			opts := Opts{Duration: 4 * time.Second, Session: sess}
			swept, err := SeedSweep(context.Background(), name, seeds, 2, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, seed := range seeds {
				o := opts
				o.Seed = seed
				o.Session = nil // one-shot: a throwaway network per emulation
				fresh := Registry[name](o)
				a, b := swept[i].Observables, fresh.Observables
				if len(a) != len(b) {
					t.Fatalf("%s seed %d: observable sets differ: %v vs %v", name, seed, a, b)
				}
				for k, v := range b {
					if a[k] != v {
						t.Errorf("%s seed %d: %s = %v via session sweep, %v fresh", name, seed, k, a[k], v)
					}
				}
			}
		}
	}
}

// TestSeedSweepErrors pins the failure modes: unknown scenarios and probe
// sharing under parallelism are refused up front. A caller's session is
// not one of them — the sweep pools it (parity is pinned above).
func TestSeedSweepErrors(t *testing.T) {
	if _, err := SeedSweep(context.Background(), "no-such-scenario", []int64{2}, 1, Opts{}); err == nil {
		t.Errorf("unknown scenario did not error")
	}
	if _, err := SeedSweep(context.Background(), "copa-single", []int64{2, 3}, 2, Opts{Probe: obs.NewRegistry()}); err == nil {
		t.Errorf("shared probe with jobs > 1 did not error")
	}
	if _, err := SeedSweep(context.Background(), "copa-single", []int64{2, 3}, 2, Opts{Duration: time.Second, Session: network.NewSession()}); err != nil {
		t.Errorf("caller session with jobs > 1: %v", err)
	}
}

// TestSeedSweepCancellation checks a cancelled context surfaces as the
// sweep error instead of running every seed to completion.
func TestSeedSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SeedSweep(ctx, "copa-single", []int64{2, 3, 4}, 1, Opts{Duration: 5 * time.Second})
	if err == nil {
		t.Errorf("pre-cancelled sweep returned no error")
	}
}
