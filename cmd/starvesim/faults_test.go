package main

import (
	"fmt"
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/core"
	"starvation/internal/endpoint"
	"starvation/internal/netem/faults"
	"starvation/internal/network"
	"starvation/internal/rng"
	"starvation/internal/scenario"
	"starvation/internal/units"
)

// wiredPair is the reference builder: a CCA pair on one bottleneck,
// wired by hand — flow i's CCA seeded from stream (seed, i, CCA), a
// Gilbert–Elliott gate on flow 0 — without PopulationSpec, its flow
// parser or core.
func wiredPair(t *testing.T, alg string, rm time.Duration, rateMbps float64, ge faults.GEConfig, d time.Duration, seed int64) *network.Result {
	t.Helper()
	specs := make([]network.FlowSpec, 2)
	for i := range specs {
		a := cca.Lookup(alg)(endpoint.DefaultMSS, rng.New(rng.Derive(seed, i, rng.CCA)))
		specs[i] = network.FlowSpec{Name: fmt.Sprintf("%s-%d", alg, i), Alg: a, Rm: rm}
	}
	specs[0].GE = &ge
	n, err := network.NewChecked(network.Config{Rate: units.Mbps(rateMbps), Seed: seed}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	return n.Run(d)
}

// TestFaultsKeepTheirRealization checks that ge= on a -flows pair
// realizes exactly what the hand-wired Gilbert–Elliott network does: the
// same drops on flow 0 at the same seed, so every flow and the link count
// the same.
func TestFaultsKeepTheirRealization(t *testing.T) {
	const (
		d    = 12 * time.Second
		seed = 2
		rm   = 50 * time.Millisecond
	)
	want := wiredPair(t, "allegro", rm, 48, faults.GEConfig{PGoodToBad: 0.008, PBadToGood: 0.2, PDropBad: 0.5}, d, seed)

	cfg, err := scenario.PopulationSpec{
		Flows: "allegro:rm=50ms,ge=0.008/0.2/0.5;allegro:rm=50ms", Duration: d, Seed: seed,
	}.Config()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.RunPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := pr.Net

	if want.Flows[0].Faults.GEDropped == 0 {
		t.Fatalf("flow 0's Gilbert–Elliott gate dropped nothing; the comparison would not cover the gate")
	}
	if len(got.Flows) != len(want.Flows) {
		t.Fatalf("flow counts %d and %d", len(got.Flows), len(want.Flows))
	}
	for i := range want.Flows {
		a, b := want.Flows[i], got.Flows[i]
		if a.Stat != b.Stat || a.Faults != b.Faults {
			t.Errorf("flow %d differs:\nwired  %+v %+v\n-flows %+v %+v", i, a.Stat, a.Faults, b.Stat, b.Faults)
		}
	}
	if want.Dropped != got.Dropped || want.Delivered != got.Delivered || want.MaxQueue != got.MaxQueue {
		t.Errorf("link differs: wired dropped %d delivered %d max queue %d, -flows %d %d %d",
			want.Dropped, want.Delivered, want.MaxQueue, got.Dropped, got.Delivered, got.MaxQueue)
	}
}
