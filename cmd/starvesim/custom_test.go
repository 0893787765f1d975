package main

import (
	"testing"
	"time"

	"starvation/internal/scenario"
)

// TestFreeformMatchesFlows checks that freeform mode and -flows are two
// spellings of one flow set: the same CCAs, loss and jitter at the same
// seed draw the same streams, so every flow realizes identically.
func TestFreeformMatchesFlows(t *testing.T) {
	const d = 5 * time.Second
	free, err := runCustom(customFlags{
		cca1: "allegro", cca2: "bbr", rateMbps: 48, bufferPkts: 100,
		rm1: 50 * time.Millisecond, rm2: 50 * time.Millisecond,
		jitterSpec: "uniform:5ms", loss1: 0.02, duration: d, seed: 5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := runPopulation(scenario.PopulationSpec{
		Flows:    "allegro:rm=50ms,loss=0.02,jitter=uniform:5ms;bbr:rm=50ms",
		RateMbps: 48, BufferPkts: 100, Duration: d, Seed: 5,
	}, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	flows := pop.Net
	if len(free.Flows) != 2 || len(flows.Flows) != 2 {
		t.Fatalf("flow counts %d and %d, want 2", len(free.Flows), len(flows.Flows))
	}
	if free.Flows[0].Faults.GateDropped == 0 {
		t.Fatalf("flow 0's loss gate dropped nothing; the comparison would not cover its stream")
	}
	for i := range free.Flows {
		a, b := free.Flows[i], flows.Flows[i]
		if a.Stat != b.Stat || a.Faults != b.Faults {
			t.Errorf("flow %d differs:\nfreeform %+v %+v\n-flows   %+v %+v", i, a.Stat, a.Faults, b.Stat, b.Faults)
		}
	}
	if free.Dropped != flows.Dropped || free.Delivered != flows.Delivered || free.MaxQueue != flows.MaxQueue {
		t.Errorf("link differs: freeform dropped %d delivered %d max queue %d, -flows %d %d %d",
			free.Dropped, free.Delivered, free.MaxQueue, flows.Dropped, flows.Delivered, flows.MaxQueue)
	}
}
