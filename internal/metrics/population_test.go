package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestPopulationBasics(t *testing.T) {
	// 8 flows on a 80 Mbit/s capacity: fair share 10 Mbit/s. Two flows
	// pinned at 0.5 Mbit/s (< 0.1 × fair) are starved.
	xs := []float64{0.5e6, 0.5e6, 12e6, 12e6, 13e6, 13e6, 14e6, 15e6}
	cohorts := []string{"copa", "copa", "bbr", "bbr", "bbr", "bbr", "bbr", "bbr"}
	st := Population(xs, cohorts, 80e6, 0)

	if st.N != 8 {
		t.Fatalf("N = %d", st.N)
	}
	if st.Epsilon != DefaultStarvationEpsilon {
		t.Errorf("eps defaulting broken: %v", st.Epsilon)
	}
	if st.FairShare != 10e6 {
		t.Errorf("fair share = %v, want 10e6", st.FairShare)
	}
	if st.Starved != 2 || st.StarvedFraction != 0.25 {
		t.Errorf("starved = %d (%.2f), want 2 (0.25)", st.Starved, st.StarvedFraction)
	}
	if got, want := st.MaxOverMin, 30.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("max/min = %v, want %v", got, want)
	}
	if len(st.Cohorts) != 2 {
		t.Fatalf("cohorts: %+v", st.Cohorts)
	}
	// Label-sorted: bbr before copa.
	if st.Cohorts[0].Cohort != "bbr" || st.Cohorts[0].N != 6 || st.Cohorts[0].Starved != 0 {
		t.Errorf("bbr cohort: %+v", st.Cohorts[0])
	}
	if st.Cohorts[1].Cohort != "copa" || st.Cohorts[1].N != 2 || st.Cohorts[1].Starved != 2 {
		t.Errorf("copa cohort: %+v", st.Cohorts[1])
	}
	if st.Cohorts[1].Jain != 1 {
		t.Errorf("copa internal jain = %v, want 1 (equal shares)", st.Cohorts[1].Jain)
	}
	out := st.String()
	for _, want := range []string{"n=8", "starved 2", "copa", "bbr"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestPopulationNoCapacityUsesMean(t *testing.T) {
	xs := []float64{1, 1, 1, 9}
	st := Population(xs, nil, 0, 0.5)
	if st.FairShare != 3 {
		t.Errorf("fair share = %v, want mean 3", st.FairShare)
	}
	// shares = 1/3,1/3,1/3,3 against eps 0.5: the three ones are starved.
	if st.Starved != 3 {
		t.Errorf("starved = %d, want 3", st.Starved)
	}
}

func TestPopulationZeroFlowInfRatio(t *testing.T) {
	st := Population([]float64{0, 5e6}, nil, 10e6, 0)
	if !math.IsInf(st.MaxOverMin, 1) {
		t.Errorf("max/min with a zero flow = %v, want +Inf", st.MaxOverMin)
	}
	if st.Starved != 1 {
		t.Errorf("starved = %d, want 1", st.Starved)
	}
}

func TestPopulationEmpty(t *testing.T) {
	st := Population(nil, nil, 0, 0)
	if st.N != 0 || st.Starved != 0 || st.Sum != 0 {
		t.Errorf("empty population not zero: %+v", st)
	}
	_ = st.String() // must not panic
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := quantile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("singleton quantile = %v", got)
	}
}
