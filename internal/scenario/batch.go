package scenario

import (
	"fmt"
	"time"

	"starvation/internal/core"
	"starvation/internal/endpoint"
	"starvation/internal/runner"
	"starvation/internal/units"
)

// Population-spec defaults, shared by the CLI flag defaults and the
// experiment service's request decoder so an omitted field means the same
// experiment everywhere.
const (
	// defaultPopulationRateMbps matches the CLI's -rate default.
	defaultPopulationRateMbps = 48
	// defaultPopulationDuration matches the CLI's population-mode default.
	defaultPopulationDuration = 30 * time.Second
	// ReferenceSeed selects the documented reference realization: the
	// seed every run takes when none is given (Opts, PopulationSpec, the
	// first seed of a sweep), and the one EXPERIMENTS.md reports.
	ReferenceSeed = 2
)

// PopulationSpec is the declarative form of a population experiment: what
// the CLI's -flows invocation and one job of a service batch request both
// describe. Both paths build and validate through this one type, so a
// malformed spec produces exactly the same error message whether it exits
// 2 at the shell or comes back as an HTTP 400 from the starved daemon.
//
// The zero value of every field selects its documented default (topology
// "single", 48 Mbit/s, infinite buffer, 30 s, seed 2, ε 0.1).
type PopulationSpec struct {
	// Flows is the parseFlows clause (required), e.g. "vegas*8;reno*8".
	Flows string `json:"flows"`
	// Topology is the parseTopology clause ("" selects "single").
	Topology string `json:"topology,omitempty"`
	// RateMbps is the bottleneck rate (0 selects the 48 Mbit/s default).
	RateMbps float64 `json:"rate_mbps,omitempty"`
	// BufferPkts is the bottleneck buffer in MSS packets (0 = infinite).
	BufferPkts int `json:"buffer_pkts,omitempty"`
	// Duration is the emulated run length (0 selects 30 s).
	Duration time.Duration `json:"-"`
	// Seed selects the realization (0 selects the reference seed 2).
	Seed int64 `json:"seed,omitempty"`
	// Epsilon is the starvation threshold (0 selects the metrics default).
	Epsilon float64 `json:"eps,omitempty"`

	// seedStride selects flowSeeds' formula (0 = derived seeds). Only
	// the randomized paper rows set it; the grammar, JSON and HTTP
	// cannot, so no keyed spec carries it and Key leaves it out.
	seedStride int64
}

// withDefaults fills the zero fields with their documented defaults.
func (s PopulationSpec) withDefaults() PopulationSpec {
	if s.Topology == "" {
		s.Topology = "single"
	}
	if s.RateMbps == 0 {
		s.RateMbps = defaultPopulationRateMbps
	}
	if s.Duration <= 0 {
		s.Duration = defaultPopulationDuration
	}
	if s.Seed == 0 {
		s.Seed = ReferenceSeed
	}
	return s
}

// Config parses the clauses and assembles the runnable population
// configuration; it refuses a negative Duration. Flow specs carry
// stateful CCA instances and jitter policies, so call Config once per
// realization (and once per retry attempt) — never run a returned config
// twice.
func (s PopulationSpec) Config() (core.PopulationConfig, error) {
	if s.Duration < 0 {
		return core.PopulationConfig{}, fmt.Errorf("duration %v: must not be negative (0 selects %v)", s.Duration, defaultPopulationDuration)
	}
	s = s.withDefaults()
	topo, err := parseTopology(s.Topology, units.Mbps(s.RateMbps), s.BufferPkts*endpoint.DefaultMSS)
	if err != nil {
		return core.PopulationConfig{}, err
	}
	specs, err := parseFlows(s.Flows, s.Seed, s.seedStride, topo)
	if err != nil {
		return core.PopulationConfig{}, err
	}
	cfg := core.PopulationConfig{
		Flows:      specs,
		Links:      topo.Links,
		Bottleneck: topo.Bottleneck,
		Seed:       s.Seed,
		Duration:   s.Duration,
		Epsilon:    s.Epsilon,
	}
	if topo.Links == nil {
		cfg.Rate = units.Mbps(s.RateMbps)
		cfg.BufferBytes = s.BufferPkts * endpoint.DefaultMSS
	}
	return cfg, nil
}

// Validate reports the first problem with the spec — a negative duration,
// clause syntax, CCA names, and the assembled network configuration,
// checked as deeply as a real run would. The returned message is the
// shared error-string contract between the CLI (exit 2) and the service
// (HTTP 400).
func (s PopulationSpec) Validate() error {
	cfg, err := s.Config()
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// Key returns the content-address identity of the spec for the runner
// cache: every field that changes the realization participates, so a
// server-side batch and a CLI run of the same spec share cache entries.
func (s PopulationSpec) Key() runner.Key {
	d := s.withDefaults()
	return runner.Key{
		Kind:     "population",
		Scenario: d.Flows,
		Seed:     d.Seed,
		Duration: d.Duration,
		Params: []string{
			"topology=" + d.Topology,
			fmt.Sprintf("rate=%g", d.RateMbps),
			fmt.Sprintf("buffer=%d", d.BufferPkts),
			fmt.Sprintf("eps=%g", d.Epsilon),
		},
	}
}

// Run executes one realization of the spec and returns the result. The
// configuration is rebuilt from scratch on every call, so repeated runs
// (retries, parity re-checks) are independent and bit-identical.
func (s PopulationSpec) Run() (*core.PopulationResult, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	return core.RunPopulation(cfg)
}
