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
// wired by hand — flow i's CCA seeded from stream (seed, i, CCA), the
// fault profile's flow half on flow 0 and its link half on the link —
// without PopulationSpec, its flow parser or core.
func wiredPair(t *testing.T, alg string, rm time.Duration, rateMbps float64, faultSpec string, d time.Duration, seed int64) *network.Result {
	t.Helper()
	prof, err := faults.ParseProfile(faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]network.FlowSpec, 2)
	for i := range specs {
		a := cca.Lookup(alg)(endpoint.DefaultMSS, rng.New(rng.Derive(seed, i, rng.CCA)))
		specs[i] = network.FlowSpec{Name: fmt.Sprintf("%s-%d", alg, i), Alg: a, Rm: rm}
	}
	if !prof.Flow.Empty() {
		specs[0].Faults = &prof.Flow
	}
	n, err := network.NewChecked(network.Config{
		Links: []network.LinkSpec{{Name: "bottleneck", Rate: units.Mbps(rateMbps), RateSchedule: prof.Link}},
		Seed:  seed,
	}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	return n.Run(d)
}

// TestFaultsKeepTheirRealization checks that -faults attached to a -flows
// pair realizes exactly what the hand-wired network does: the same
// Gilbert–Elliott drops on flow 0 and the same link flaps at the same
// seed, so every flow and the link count the same.
func TestFaultsKeepTheirRealization(t *testing.T) {
	const (
		faultSpec = "ge:0.008,0.2,0.5;flap:5s,200ms"
		d         = 12 * time.Second
		seed      = 2
		rm        = 50 * time.Millisecond
	)
	want := wiredPair(t, "allegro", rm, 48, faultSpec, d, seed)

	cfg, err := flowSet(scenario.PopulationSpec{
		Flows: "allegro:rm=50ms;allegro:rm=50ms", Duration: d, Seed: seed,
	}, faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.RunPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := pr.Net

	if want.Flows[0].Faults.GEDropped == 0 {
		t.Fatalf("flow 0's Gilbert–Elliott gate dropped nothing; the comparison would not cover the flow half")
	}
	if want.Obs.Global.LinkRateChanges == 0 {
		t.Fatalf("the link's rate never changed; the comparison would not cover the link half")
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
	if want.Dropped != got.Dropped || want.Delivered != got.Delivered || want.MaxQueue != got.MaxQueue ||
		want.Obs.Global.LinkRateChanges != got.Obs.Global.LinkRateChanges {
		t.Errorf("link differs: wired dropped %d delivered %d max queue %d rate changes %d, -flows %d %d %d %d",
			want.Dropped, want.Delivered, want.MaxQueue, want.Obs.Global.LinkRateChanges,
			got.Dropped, got.Delivered, got.MaxQueue, got.Obs.Global.LinkRateChanges)
	}
}
