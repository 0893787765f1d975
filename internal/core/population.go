package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"starvation/internal/guard"
	"starvation/internal/metrics"
	"starvation/internal/network"
	"starvation/internal/obs"
	"starvation/internal/runner"
	"starvation/internal/units"
)

// PopulationConfig describes a population-scale starvation experiment: N
// flows (typically a mixed-CCA, mixed-RTT population) contending across a
// topology, evaluated with the population starvation statistics instead of
// the paper's pairwise two-flow ratio.
type PopulationConfig struct {
	// Flows is the population (required, non-empty).
	Flows []network.FlowSpec
	// Links is the topology; nil selects the legacy single bottleneck
	// built from Rate/BufferBytes.
	Links      []network.LinkSpec
	Bottleneck int
	// Rate and BufferBytes configure the single bottleneck when Links is
	// nil (ignored otherwise).
	Rate        units.Rate
	BufferBytes int
	// Seed selects the realization.
	Seed int64
	// Duration is the emulated run length (required, > 0).
	Duration time.Duration
	// Epsilon is the starvation threshold (<= 0 selects
	// metrics.DefaultStarvationEpsilon).
	Epsilon float64
	// Guard, Probe and Ctx pass through to network.Config.
	Guard *guard.Options
	Probe obs.Probe
	Ctx   context.Context
	// Telemetry, when non-nil, enables the flight recorder (windowed
	// series + online episode detection) on the population run. A non-zero
	// Epsilon above is also the episode detector's threshold, so the
	// population statistics and the episode log of one report agree.
	Telemetry *network.TelemetryConfig
	// Session, when non-nil, runs the realization through a reusable run
	// context that recycles the network's arenas across runs instead of
	// rebuilding them — the sweep/daemon hot path. The realization is
	// bit-identical with or without a session. Sessions are single-owner:
	// never share one across goroutines (PopulationSweep borrows one per
	// seed from a pool).
	Session *network.Session
}

// PopulationResult is one realization of a population experiment.
type PopulationResult struct {
	Seed  int64
	Net   *network.Result
	Stats metrics.PopulationStats
}

// Render returns exactly the text the starvesim CLI prints for this
// result: the population statistics (only for small populations — large
// ones already embed them in the network table) followed by the network
// result. The experiment service stores this rendering as the job
// artifact, which is what makes server-vs-CLI byte parity checkable with
// a plain diff.
func (r *PopulationResult) Render() string {
	var b strings.Builder
	if len(r.Net.Flows) <= network.CompactFlowThreshold {
		b.WriteString(r.Stats.String())
	}
	b.WriteString(r.Net.String())
	b.WriteString("\n")
	return b.String()
}

// networkConfig assembles the network.Config one realization runs under.
func (cfg PopulationConfig) networkConfig() network.Config {
	ncfg := network.Config{
		Links:      cfg.Links,
		Bottleneck: cfg.Bottleneck,
		Seed:       cfg.Seed,
		Guard:      cfg.Guard,
		Probe:      cfg.Probe,
		Ctx:        cfg.Ctx,
		Telemetry:  cfg.Telemetry,
	}
	if cfg.Telemetry != nil && cfg.Epsilon > 0 {
		// A copy: the caller's config may be shared across runs.
		tc := *cfg.Telemetry
		tc.Epsilon = cfg.Epsilon
		ncfg.Telemetry = &tc
	}
	if cfg.Links == nil {
		ncfg.Rate = cfg.Rate
		ncfg.BufferBytes = cfg.BufferBytes
	}
	return ncfg
}

// Validate reports the first problem with the configuration, with exactly
// the message RunPopulation would fail with — the single source of the
// error strings the CLI exits 2 on and the experiment service returns as
// HTTP 400. Link and flow specs go through network.Validate, the check
// every run starts with, so nothing is wired to find out.
func (cfg PopulationConfig) Validate() error {
	if err := cfg.check(); err != nil {
		return err
	}
	if err := network.Validate(cfg.networkConfig(), cfg.Flows...); err != nil {
		return fmt.Errorf("population: %w", err)
	}
	return nil
}

// check reports the first problem with the fields network.Validate does
// not see.
func (cfg PopulationConfig) check() error {
	if len(cfg.Flows) == 0 {
		return fmt.Errorf("population: no flows")
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("population: duration %v not positive", cfg.Duration)
	}
	if math.IsNaN(cfg.Epsilon) || math.IsInf(cfg.Epsilon, 0) {
		return fmt.Errorf("population: starvation threshold %g not finite", cfg.Epsilon)
	}
	return nil
}

// RunPopulation runs one realization and computes its population
// starvation statistics.
func RunPopulation(cfg PopulationConfig) (*PopulationResult, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	res, err := cfg.Session.Run(cfg.networkConfig(), cfg.Duration, cfg.Flows...)
	if err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}
	res.Epsilon = cfg.Epsilon
	return &PopulationResult{Seed: cfg.Seed, Net: res, Stats: res.Population(cfg.Epsilon)}, nil
}

// PopulationSweep runs the experiment across seeds on a bounded worker
// pool (jobs = 0 selects GOMAXPROCS) and returns results indexed like
// seeds. rebuild must return a fresh PopulationConfig per seed — flow
// specs carry stateful CCA instances and jitter policies, so realizations
// cannot share them. Each realization runs through a network.Session
// borrowed from a pool (a Session set by rebuild is overridden), so the
// sweep wires each distinct topology once per concurrent worker, not once
// per seed; results are bit-identical to one-shot runs at any jobs value.
func PopulationSweep(ctx context.Context, seeds []int64, jobs int, rebuild func(seed int64) (PopulationConfig, error)) ([]*PopulationResult, error) {
	results := make([]*PopulationResult, len(seeds))
	pool := network.NewSessionPool()
	err := runner.ForEach(ctx, jobs, len(seeds), func(ctx context.Context, i int) error {
		cfg, err := rebuild(seeds[i])
		if err != nil {
			return err
		}
		cfg.Seed = seeds[i]
		cfg.Ctx = ctx
		cfg.Session = pool.Get()
		defer pool.Put(cfg.Session)
		results[i], err = RunPopulation(cfg)
		return err
	})
	return results, err
}
