package scenario

import (
	"context"
	"strings"
	"testing"
	"time"

	"starvation/internal/core"
	"starvation/internal/guard"
	"starvation/internal/units"
)

// TestPopulationScenariosRun smokes every registered population scenario
// at reduced duration with the run-guard layer on: ledger clean, every
// observable present, cohort structure as declared.
func TestPopulationScenariosRun(t *testing.T) {
	cases := []struct {
		name    string
		flows   int
		cohorts int
	}{
		{"pop-mixed", 24, 3},
		{"pop-rtt", 24, 3},
		{"pop-parkinglot", 12, 2},
		{"pop-fanin", 16, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res := Registry[tc.name](Opts{Duration: 4 * time.Second, Guard: &guard.Options{}})
			if res.Net == nil {
				t.Fatal("no network result")
			}
			if got := int(res.Observables["flows"]); got != tc.flows {
				t.Errorf("flows = %d, want %d", got, tc.flows)
			}
			if err := res.Net.Ledger.Check(); err != nil {
				t.Errorf("ledger: %v", err)
			}
			if res.Net.Guard == nil || !res.Net.Guard.Ok() {
				t.Errorf("guard report not clean: %v", res.Net.Guard)
			}
			st := res.Net.Population(0)
			if len(st.Cohorts) != tc.cohorts {
				t.Errorf("cohorts = %d, want %d (%+v)", len(st.Cohorts), tc.cohorts, st.Cohorts)
			}
			for _, key := range []string{"starved_frac", "jain", "share_p50", "utilization_pct"} {
				if _, ok := res.Observables[key]; !ok {
					t.Errorf("observable %q missing", key)
				}
			}
			// Population renderings replace the per-flow table above the
			// compact threshold; multi-link runs also print a link table.
			s := res.Net.String()
			if tc.flows > 12 && !strings.Contains(s, "population n=") {
				t.Errorf("large-N Result.String() should render population stats:\n%s", s)
			}
			if len(res.Net.Links) > 1 && !strings.Contains(s, "link") {
				t.Errorf("multi-link Result.String() should render the link table:\n%s", s)
			}
		})
	}
}

// TestPopulationRTTUnfairness pins the qualitative claim of pop-rtt: the
// short-RTT cohort out-shares the long-RTT cohort.
func TestPopulationRTTUnfairness(t *testing.T) {
	res := Registry["pop-rtt"](Opts{Duration: 8 * time.Second})
	st := res.Net.Population(0)
	var short, long float64
	for _, c := range st.Cohorts {
		switch c.Cohort {
		case "rtt20":
			short = c.Mean
		case "rtt160":
			long = c.Mean
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("cohorts missing: %+v", st.Cohorts)
	}
	if short <= long {
		t.Errorf("RTT unfairness inverted: rtt20 mean %.3g <= rtt160 mean %.3g", short, long)
	}
}

// TestThousandFlowSweepUnderRunnerPool is the scale acceptance test: a
// 1000-flow mixed-CCA population completes under the runner worker pool
// and reports population starvation statistics in the result and the obs
// snapshot.
func TestThousandFlowSweepUnderRunnerPool(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-flow population run in -short mode")
	}
	const flowsSpec = "vegas*250:stagger=4ms;reno*250:stagger=4ms;" +
		"copa*250:stagger=4ms;bbr*250:stagger=4ms"
	rebuild := func(seed int64) (core.PopulationConfig, error) {
		specs, err := parseFlows(flowsSpec, seed, 0, nil)
		if err != nil {
			return core.PopulationConfig{}, err
		}
		return core.PopulationConfig{
			Flows:       specs,
			Rate:        units.Mbps(300),
			BufferBytes: 1024 * 1500,
			Duration:    3 * time.Second,
		}, nil
	}
	results, err := core.PopulationSweep(context.Background(), []int64{2, 3}, 2, rebuild)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range results {
		if pr == nil {
			t.Fatal("missing sweep result")
		}
		st := pr.Stats
		if st.N != 1000 {
			t.Fatalf("seed %d: population n = %d, want 1000", pr.Seed, st.N)
		}
		if len(st.Cohorts) != 4 {
			t.Errorf("seed %d: cohorts = %d, want 4", pr.Seed, len(st.Cohorts))
		}
		if st.Sum <= 0 {
			t.Errorf("seed %d: population moved no bytes", pr.Seed)
		}
		if st.StarvedFraction < 0 || st.StarvedFraction > 1 {
			t.Errorf("seed %d: starved fraction %v out of range", pr.Seed, st.StarvedFraction)
		}
		// The obs snapshot must agree with the result on population size
		// and carry the cohort labels for downstream aggregation.
		snap := pr.Net.Obs
		if len(snap.Flows) != 1000 {
			t.Errorf("seed %d: obs snapshot has %d flows", pr.Seed, len(snap.Flows))
		}
		cohorts := map[string]bool{}
		for _, f := range snap.Flows {
			cohorts[f.Cohort] = true
		}
		if len(cohorts) != 4 {
			t.Errorf("seed %d: obs cohorts = %d, want 4", pr.Seed, len(cohorts))
		}
	}
}
