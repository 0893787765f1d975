package main

import (
	"context"
	"fmt"
	"time"

	"starvation/internal/core"
	"starvation/internal/scenario"
)

// pop500Spec is the pop-mixed-500 clause of internal/scenario/population.go
// in its declarative form (the registry entry itself takes no spec).
func pop500Spec(emu time.Duration) scenario.PopulationSpec {
	return scenario.PopulationSpec{
		Flows: "vegas*125:stagger=8ms;reno*125:stagger=8ms;" +
			"copa*125:stagger=8ms;bbr*125:stagger=8ms",
		Topology:   "single",
		RateMbps:   250,
		BufferPkts: 512,
		Duration:   emu,
	}
}

const (
	popEmu = 8 * time.Second
	// popSweepSeeds is how many realizations one core.PopulationSweep call
	// runs: the first builds the 500-flow network, the second resets it.
	popSweepSeeds = 2
)

// pop is the pop_500 workload: 500 flows of four CCAs through a finite
// drop-tail buffer, run as seed sweeps at jobs=1 and rendered.
type pop struct {
	seed  int64
	spec  scenario.PopulationSpec
	seeds int
}

func newPop(seed int64, emu time.Duration, sweepSeeds int) *pop {
	return &pop{seed: seed, spec: pop500Spec(emu), seeds: sweepSeeds}
}

// setup validates the spec (which assembles the 500-flow network once)
// and runs one short realization so the heap has grown before timing.
func (p *pop) setup() error {
	if err := p.spec.Validate(); err != nil {
		return err
	}
	warm := p.spec
	warm.Duration = time.Second
	warm.Seed = mix(p.seed, 3)
	pr, err := warm.Run()
	if err != nil {
		return err
	}
	return pr.Net.Ledger.Check()
}

func (p *pop) flows() int { return 500 }

// popSweep is the outcome of one sweep + render.
type popSweep struct {
	wall time.Duration
	// realMS is each realization's share of wall: from its rebuild callback
	// to the next one's (or the sweep's return), plus its rendering.
	realMS  []float64
	failed  int
	digests []string
	counts  simCounts
	probe   countProbe
	meters  ccaMeters
}

func (s *popSweep) elapsed() time.Duration { return s.wall }
func (s *popSweep) sig() string            { return fmt.Sprint(s.digests) }

// sweep runs one core.PopulationSweep over the given seeds at jobs=1 and
// renders every result. With tr set the rebuild callback — the one place
// the public API hands the flow specs to the caller — wraps each CCA and
// jitter policy with a call meter and installs a counting probe.
func (p *pop) sweep(op string, seeds []int64, tr *tracer) *popSweep {
	out := &popSweep{digests: make([]string, len(seeds))}
	root := tr.begin(op, "pop_500.sweep", 0)
	run := 0 // open core.run_population span
	t0 := time.Now()
	marks := make([]time.Time, 0, len(seeds)+1)
	results, err := core.PopulationSweep(context.Background(), seeds, 1, func(seed int64) (core.PopulationConfig, error) {
		marks = append(marks, time.Now())
		tr.end(run)
		sp := tr.begin(op, "scenario.config", root)
		spec := p.spec
		spec.Seed = seed
		cfg, err := spec.Config()
		if err == nil && tr != nil {
			for i := range cfg.Flows {
				cfg.Flows[i].Alg = wrapCCA(cfg.Flows[i].Alg, &out.meters)
				cfg.Flows[i].FwdJitter = wrapJitter(cfg.Flows[i].FwdJitter, &out.meters.jitter)
				cfg.Flows[i].AckJitter = wrapJitter(cfg.Flows[i].AckJitter, &out.meters.jitter)
			}
			cfg.Probe = &out.probe
		}
		tr.end(sp)
		run = tr.begin(op, "core.run_population", root)
		return cfg, err
	})
	tr.end(run)
	marks = append(marks, time.Now())
	if err != nil || len(marks) != len(seeds)+1 {
		out.failed = len(seeds)
		out.wall = time.Since(t0)
		tr.end(root)
		return out
	}
	for i, pr := range results {
		sp := tr.begin(op, "core.render", root)
		r0 := time.Now()
		text := pr.Render()
		out.realMS = append(out.realMS, millis(marks[i+1].Sub(marks[i])+time.Since(r0)))
		tr.end(sp)
		if pr.Net.Ledger.Check() != nil || len(text) == 0 {
			out.failed++
			continue
		}
		var d digest
		d.add("stats=%+v", pr.Stats)
		digestNet(&d, pr.Net)
		out.digests[i] = d.String()
		out.counts.addNet(pr.Net)
	}
	out.wall = time.Since(t0)
	tr.end(root)
	return out
}

func (p *pop) sweepSeeds(n int) []int64 {
	seeds := make([]int64, p.seeds)
	for i := range seeds {
		seeds[i] = mix(p.seed, 4, int64(n), int64(i))
	}
	return seeds
}

func reversed[T any](xs []T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

// measure runs sweeps while another one fits into the window, the last of
// them over sweep 0's seeds in reverse order: the seed that ran on a freshly built network
// now runs on a recycled one and vice versa, so the timed repeat is both
// the determinism check and the fresh≡session check.
func (p *pop) measure(seconds float64, tr *tracer) *measured {
	m := newMeasured()
	take := func(s *popSweep, traced bool) {
		m.attempted += p.seeds
		m.failed += s.failed
		if traced {
			return
		}
		m.flowsec += float64(p.seeds*p.flows()) * p.spec.Duration.Seconds()
		for _, ms := range s.realMS {
			m.batchMS = append(m.batchMS, ms)
			m.rates = append(m.rates, 1e3/ms)
		}
	}
	first, firstTraced := pairedLoop(m, seconds, tr, take, func(n int, tr *tracer) *popSweep {
		return p.sweep(fmt.Sprintf("sweep-%d", n), p.sweepSeeds(n), tr)
	})
	again := p.sweep("sweep-repeat", reversed(p.sweepSeeds(0)), nil)
	take(again, false)
	m.untracedWall += again.wall
	want := first.sig()
	got := fmt.Sprint(reversed(again.digests))
	m.check("repeat of sweep 0, fresh<->recycled swapped", got == want, got+" vs "+want)

	m.batchP50 = quietLow(m.batchMS)
	m.jobsPerS = quietHigh(m.rates)
	var d digest
	d.add("%v", first.digests)
	m.digest = d.String()
	m.counts, m.nets, m.refWall = first.counts, p.seeds, first.wall
	if firstTraced != nil {
		m.meters, m.tracedRefWall = &firstTraced.meters, firstTraced.wall
		m.probes = map[string]*countProbe{"pop_500": &firstTraced.probe}
	}
	return m
}

func (p *pop) close() {}
