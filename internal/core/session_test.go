package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"starvation/internal/cca/reno"
	"starvation/internal/cca/vegas"
	"starvation/internal/network"
	"starvation/internal/units"
)

// TestMeasureConvergenceSessionParity pins that a convergence measurement
// equals the one-shot (nil-session) measurement in every reported field
// whichever session carries it — nil again, or one reused across repeated
// runs with varying parameters.
func TestMeasureConvergenceSessionParity(t *testing.T) {
	s := network.NewSession()
	for _, p := range []struct {
		c  units.Rate
		rm time.Duration
	}{
		{units.Mbps(12), 60 * time.Millisecond},
		{units.Mbps(48), 20 * time.Millisecond},
		{units.Mbps(12), 60 * time.Millisecond}, // back to the first point
	} {
		opts := MeasureOpts{Duration: 8 * time.Second}
		fresh := MeasureConvergence("vegas", p.c, p.rm, opts)
		for _, sess := range []*network.Session{nil, s} {
			opts.Session = sess
			got := MeasureConvergence("vegas", p.c, p.rm, opts)
			if !reflect.DeepEqual(got, fresh) {
				t.Errorf("C=%v Rm=%v session=%v: measurement diverged:\n got %+v\nwant %+v",
					p.c, p.rm, sess != nil, got, fresh)
			}
		}
	}
}

// TestPopulationSweepSessionParity pins that the seed sweep — which
// recycles networks through pooled sessions — reproduces one-shot
// (nil-session) single-realization runs exactly, including the rendered
// artifact text the service's byte-parity contract depends on.
func TestPopulationSweepSessionParity(t *testing.T) {
	rebuild := func(seed int64) (PopulationConfig, error) {
		mkFlows := func() []network.FlowSpec {
			return []network.FlowSpec{
				{Name: "v0", Alg: vegas.New(vegas.Config{}), Rm: 30 * time.Millisecond},
				{Name: "v1", Alg: vegas.New(vegas.Config{}), Rm: 60 * time.Millisecond},
				{Name: "r0", Alg: reno.New(reno.Config{}), Rm: 40 * time.Millisecond},
			}
		}
		return PopulationConfig{
			Flows:       mkFlows(),
			Rate:        units.Mbps(24),
			BufferBytes: 64 * 1500,
			Duration:    3 * time.Second,
		}, nil
	}
	seeds := []int64{1, 4, 7, 11}
	swept, err := PopulationSweep(context.Background(), seeds, 2, rebuild)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		cfg, _ := rebuild(seed)
		cfg.Seed = seed
		fresh, err := RunPopulation(cfg) // nil session: one-shot network
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(swept[i].Stats, fresh.Stats) {
			t.Errorf("seed %d: stats diverged:\n got %+v\nwant %+v", seed, swept[i].Stats, fresh.Stats)
		}
		if got, want := swept[i].Render(), fresh.Render(); got != want {
			t.Errorf("seed %d: rendered artifact diverged:\n got %q\nwant %q", seed, got, want)
		}
	}
}

// TestRunPopulationEpsilonReachesDetector pins that one report uses one
// threshold: the population's Epsilon is also the episode detector's, and
// it gets there without writing through the caller's TelemetryConfig,
// which sweeps share across realizations.
func TestRunPopulationEpsilonReachesDetector(t *testing.T) {
	tc := &network.TelemetryConfig{}
	res, err := RunPopulation(PopulationConfig{
		Flows:    []network.FlowSpec{{Alg: vegas.New(vegas.Config{}), Rm: 30 * time.Millisecond}},
		Rate:     units.Mbps(24),
		Duration: time.Second,
		Epsilon:  0.5, Telemetry: tc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Net.Telemetry.Epsilon; got != 0.5 || res.Stats.Epsilon != 0.5 {
		t.Errorf("detector threshold %g, population statistics %g, want 0.5 for both", got, res.Stats.Epsilon)
	}
	if tc.Epsilon != 0 {
		t.Errorf("RunPopulation wrote %g into the caller's TelemetryConfig", tc.Epsilon)
	}
}
