package scenario

import (
	"testing"

	"starvation/internal/obs"
)

// TestSeedFreeRowsOnDaemonPath runs each row that keeps derived seeds
// through PopulationSpec.Run, the path the daemon serves, and checks it
// realizes what the registered scenario does: the same per-flow counts
// and the same simulator event counts.
func TestSeedFreeRowsOnDaemonPath(t *testing.T) {
	for _, name := range []string{"copa-single", "copa-two", "fig7-reno", "fig7-cubic", "quickstart-vegas", "vegas-jitter"} {
		r := rows[name]
		if r.spec.seedStride != 0 {
			t.Fatalf("%s: seeds by stride %d; the daemon path cannot", name, r.spec.seedStride)
		}
		for _, seed := range []int64{2, 3} {
			spec := r.spec
			spec.Seed, spec.Duration = seed, pinDuration(name)
			pr, err := spec.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := Registry[name](Opts{Seed: seed, Duration: spec.Duration}).Net.Obs
			got := pr.Net.Obs
			if got.Global.SimEventsFired != want.Global.SimEventsFired ||
				got.Global.SimEventsScheduled != want.Global.SimEventsScheduled {
				t.Errorf("%s/%d: events %d/%d, registry %d/%d", name, seed,
					got.Global.SimEventsFired, got.Global.SimEventsScheduled,
					want.Global.SimEventsFired, want.Global.SimEventsScheduled)
			}
			if len(got.Flows) != len(want.Flows) {
				t.Fatalf("%s/%d: %d flows, registry %d", name, seed, len(got.Flows), len(want.Flows))
			}
			for i := range got.Flows {
				if !sameCounts(got.Flows[i], want.Flows[i]) {
					t.Errorf("%s/%d flow %d: %+v, registry %+v", name, seed, i, got.Flows[i], want.Flows[i])
				}
			}
		}
	}
}

// sameCounts compares two flows' counters, names and cohorts aside.
func sameCounts(a, b obs.FlowCounters) bool {
	a.Name, a.Cohort, b.Name, b.Cohort = "", "", "", ""
	return a == b
}
