package network

import (
	"reflect"
	"testing"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/guard"
	"starvation/internal/netem/faults"
	"starvation/internal/obs"
	"starvation/internal/units"
)

func vegasSpec(name string) FlowSpec {
	return FlowSpec{Name: name, Alg: vegas.New(vegas.Config{}), Rm: 50 * time.Millisecond}
}

// TestStalledFlowTripsStallSweep is the acceptance case for the progress
// sweep: a flow whose every packet is dropped (LossProb 1) never
// delivers, so the stall sweep must flag it once its 1000 × Rm = 50 s
// threshold passes — while the conservation ledger still balances,
// because the gate reports its drops.
func TestStalledFlowTripsStallSweep(t *testing.T) {
	blackhole := vegasSpec("blackhole")
	blackhole.LossProb = 1
	n := New(
		Config{Rate: units.Mbps(12), Seed: 1, Guard: &guard.Options{}},
		blackhole,
		vegasSpec("healthy"),
	)
	res := n.Run(55 * time.Second)
	if res.Guard == nil {
		t.Fatal("guarded run has no report")
	}
	var stalls []guard.Violation
	for _, v := range res.Guard.Violations {
		if v.Kind == "stall" {
			stalls = append(stalls, v)
		}
	}
	if len(stalls) == 0 {
		t.Fatalf("no stall violation for a 100%%-loss flow; report: %s", res.Guard)
	}
	for _, v := range stalls {
		if v.Flow != 0 {
			t.Errorf("stall on flow %d, want only the blackhole flow 0: %s", v.Flow, v)
		}
	}
	if err := res.Ledger.Check(); err != nil {
		t.Errorf("ledger unbalanced despite reported drops: %v", err)
	}
	if res.Flows[1].Stat.AckedBytes == 0 {
		t.Errorf("healthy flow made no progress")
	}
}

func faultySpecs() (Config, []FlowSpec) {
	impaired := vegasSpec("impaired")
	impaired.LossProb = 0.005
	impaired.Faults = &faults.Spec{
		GE:        &faults.GEConfig{PGoodToBad: 0.01, PBadToGood: 0.2, PDropBad: 0.5},
		Reorder:   &faults.ReorderConfig{P: 0.02, Delay: 4 * time.Millisecond},
		Duplicate: &faults.DupConfig{P: 0.01},
	}
	cfg := Config{
		Rate: units.Mbps(24), BufferBytes: 60 * 1500, Seed: 7,
		RateSchedule: faults.Flap(3*time.Second, 100*time.Millisecond),
	}
	return cfg, []FlowSpec{impaired, vegasSpec("clean")}
}

// TestFaultPipelineConserves: with every impairment element active at
// once — duplicator, reorderer, GE gate, Bernoulli gate, flapping link —
// the conservation ledger must still balance and the fault counters must
// show each element actually fired.
func TestFaultPipelineConserves(t *testing.T) {
	cfg, specs := faultySpecs()
	res := New(cfg, specs...).Run(12 * time.Second)
	if err := res.Ledger.Check(); err != nil {
		t.Fatalf("ledger: %v", err)
	}
	fc := res.Flows[0].Faults
	if fc.GEDropped == 0 || fc.GEBursts == 0 {
		t.Errorf("GE gate never fired: %+v", fc)
	}
	if fc.GateDropped == 0 {
		t.Errorf("Bernoulli gate never fired: %+v", fc)
	}
	if fc.Reordered == 0 || fc.Duplicated == 0 {
		t.Errorf("reorder/dup never fired: %+v", fc)
	}
	if res.Obs.Global.LinkRateChanges == 0 {
		t.Errorf("no link rate changes recorded under a flap schedule")
	}
	clean := res.Flows[1].Faults
	if clean != (FaultCounters{}) {
		t.Errorf("clean flow has fault counters %+v", clean)
	}
}

// TestFaultsDeterministic: the full fault pipeline is a pure function of
// the seed.
func TestFaultsDeterministic(t *testing.T) {
	run := func() *Result {
		cfg, specs := faultySpecs()
		return New(cfg, specs...).Run(8 * time.Second)
	}
	a, b := run(), run()
	for i := range a.Flows {
		if !reflect.DeepEqual(a.Flows[i].Stat, b.Flows[i].Stat) {
			t.Errorf("flow %d stats diverged:\n%+v\n%+v", i, a.Flows[i].Stat, b.Flows[i].Stat)
		}
		if a.Flows[i].Faults != b.Flows[i].Faults {
			t.Errorf("flow %d fault counters diverged: %+v vs %+v",
				i, a.Flows[i].Faults, b.Flows[i].Faults)
		}
	}
	if !reflect.DeepEqual(a.Ledger, b.Ledger) {
		t.Errorf("ledgers diverged:\n%+v\n%+v", a.Ledger, b.Ledger)
	}
}

// TestGuardsPreserveRealization is the bit-identity acceptance case: the
// guard layer observes but never steers, so flow-visible results must be
// byte-for-byte identical with guards on or off. Only the sim event-loop
// gauges may differ (the sweep itself is scheduled).
func TestGuardsPreserveRealization(t *testing.T) {
	run := func(g *guard.Options) *Result {
		cfg, specs := faultySpecs()
		cfg.Guard = g
		return New(cfg, specs...).Run(10 * time.Second)
	}
	off := run(nil)
	on := run(&guard.Options{})
	if on.Guard == nil {
		t.Fatal("guarded run has no report")
	}
	for i := range off.Flows {
		if !reflect.DeepEqual(off.Flows[i].Stat, on.Flows[i].Stat) {
			t.Errorf("flow %d stats differ with guards on:\n off %+v\n on  %+v",
				i, off.Flows[i].Stat, on.Flows[i].Stat)
		}
		if off.Flows[i].Faults != on.Flows[i].Faults {
			t.Errorf("flow %d fault counters differ with guards on", i)
		}
	}
	if !reflect.DeepEqual(off.Ledger, on.Ledger) {
		t.Errorf("ledger differs with guards on")
	}
	// The obs registries must agree except for the emission gauges: the
	// sim event-loop counts (the sweep schedules events) and the
	// CwndUpdates/RateSamples tallies, which count emitted probe events
	// and so exist only when a probe — here the guard monitor — is
	// installed. Every packet-visible counter must match exactly.
	a, b := off.Obs, on.Obs
	a.Global.SimEventsScheduled, b.Global.SimEventsScheduled = 0, 0
	a.Global.SimEventsFired, b.Global.SimEventsFired = 0, 0
	for _, s := range []*obs.Snapshot{&a, &b} {
		for i := range s.Flows {
			s.Flows[i].CwndUpdates = 0
			s.Flows[i].RateSamples = 0
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("obs snapshots differ with guards on:\n off %+v\n on  %+v", a, b)
	}
	if off.Dropped != on.Dropped || off.Delivered != on.Delivered || off.MaxQueue != on.MaxQueue {
		t.Errorf("link totals differ with guards on")
	}
}
