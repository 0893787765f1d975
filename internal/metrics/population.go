package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DefaultStarvationEpsilon is the population starvation threshold: a flow
// is counted starved when its steady-state throughput falls below ε times
// the fair share. The paper's pairwise criterion (Definition 3) calls two
// flows starved when their throughput ratio is unbounded; at population
// scale the operational analogue is a flow pinned far below fair share,
// and 0.1 — an order of magnitude below fair — matches the ratios the
// paper's two-flow experiments report for starved Copa/BBR/Vivace flows.
const DefaultStarvationEpsilon = 0.1

// CohortShare summarizes one cohort of a population: how many flows, how
// much of the capacity they hold, and how fairly it is spread inside the
// cohort.
type CohortShare struct {
	Cohort string
	N      int
	// Sum/Mean/Min/Max are throughputs in bit/s.
	Sum, Mean, Min, Max float64
	// Jain is Jain's index across the cohort's own flows.
	Jain float64
	// Starved counts the cohort's flows below ε × fair share.
	Starved int
}

// PopulationStats is the population-level starvation report: who starves,
// how many, and how badly, across N flows at shared bottlenecks.
type PopulationStats struct {
	N       int
	Epsilon float64
	// FairShare is capacity/N when a positive capacity is given, else the
	// population mean throughput.
	FairShare float64
	// Sum is the aggregate throughput in bit/s.
	Sum float64
	// Jain is Jain's index across the whole population.
	Jain float64
	// MaxOverMin is the worst pairwise throughput ratio (Definition 2's s
	// taken over the whole population); +Inf when some flow got nothing.
	MaxOverMin float64
	// ShareP5..ShareP95 are quantiles of the normalized share x_i /
	// FairShare — the throughput-ratio distribution. A fair population
	// concentrates near 1; starvation shows as mass near 0 with a heavy
	// upper tail.
	ShareP5, ShareP25, ShareP50, ShareP75, ShareP95 float64
	// Starved counts flows below ε × FairShare; StarvedFraction is
	// Starved/N.
	Starved         int
	StarvedFraction float64
	// Cohorts breaks the population down by cohort label, sorted by label.
	Cohorts []CohortShare
}

// Population computes the population starvation statistics of the given
// throughputs (bit/s). cohorts labels each flow (nil or empty strings for
// an unlabelled population); capacity is the shared bottleneck rate in
// bit/s (0 if unknown); eps is the starvation threshold (<= 0 selects
// DefaultStarvationEpsilon).
func Population(xs []float64, cohorts []string, capacity, eps float64) PopulationStats {
	if eps <= 0 {
		eps = DefaultStarvationEpsilon
	}
	st := PopulationStats{N: len(xs), Epsilon: eps}
	if len(xs) == 0 {
		return st
	}
	for _, x := range xs {
		st.Sum += x
	}
	st.Jain = JainIndex(xs)
	st.MaxOverMin = Ratio(xs)
	if capacity > 0 {
		st.FairShare = capacity / float64(len(xs))
	} else {
		st.FairShare = st.Sum / float64(len(xs))
	}

	shares := make([]float64, len(xs))
	for i, x := range xs {
		if st.FairShare > 0 {
			shares[i] = x / st.FairShare
		}
	}
	sorted := append([]float64(nil), shares...)
	sort.Float64s(sorted)
	st.ShareP5 = quantile(sorted, 0.05)
	st.ShareP25 = quantile(sorted, 0.25)
	st.ShareP50 = quantile(sorted, 0.50)
	st.ShareP75 = quantile(sorted, 0.75)
	st.ShareP95 = quantile(sorted, 0.95)
	for _, s := range shares {
		if s < eps {
			st.Starved++
		}
	}
	st.StarvedFraction = float64(st.Starved) / float64(len(xs))

	// Per-cohort breakdown, label-sorted for stable output.
	byLabel := map[string]*CohortShare{}
	var labels []string
	cohortXs := map[string][]float64{}
	for i, x := range xs {
		label := ""
		if i < len(cohorts) {
			label = cohorts[i]
		}
		c, ok := byLabel[label]
		if !ok {
			c = &CohortShare{Cohort: label, Min: math.Inf(1), Max: math.Inf(-1)}
			byLabel[label] = c
			labels = append(labels, label)
		}
		c.N++
		c.Sum += x
		c.Min = math.Min(c.Min, x)
		c.Max = math.Max(c.Max, x)
		if shares[i] < eps {
			c.Starved++
		}
		cohortXs[label] = append(cohortXs[label], x)
	}
	sort.Strings(labels)
	for _, label := range labels {
		c := byLabel[label]
		c.Mean = c.Sum / float64(c.N)
		c.Jain = JainIndex(cohortXs[label])
		st.Cohorts = append(st.Cohorts, *c)
	}
	return st
}

// quantile returns the q-quantile (0 <= q <= 1) of ascending-sorted xs by
// linear interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the population report as a compact table.
func (st PopulationStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "population n=%d  starved %d (%.1f%% at eps=%.2g)  jain %.3f  max/min %.3g\n",
		st.N, st.Starved, 100*st.StarvedFraction, st.Epsilon, st.Jain, st.MaxOverMin)
	fmt.Fprintf(&b, "share/fair quantiles  p5 %.3f  p25 %.3f  p50 %.3f  p75 %.3f  p95 %.3f\n",
		st.ShareP5, st.ShareP25, st.ShareP50, st.ShareP75, st.ShareP95)
	if len(st.Cohorts) > 1 || (len(st.Cohorts) == 1 && st.Cohorts[0].Cohort != "") {
		fmt.Fprintf(&b, "%-16s %6s %8s %12s %12s %12s %8s\n",
			"cohort", "flows", "starved", "mean_bps", "min_bps", "max_bps", "jain")
		for _, c := range st.Cohorts {
			name := c.Cohort
			if name == "" {
				name = "(uncohorted)"
			}
			fmt.Fprintf(&b, "%-16s %6d %8d %12.3g %12.3g %12.3g %8.3f\n",
				name, c.N, c.Starved, c.Mean, c.Min, c.Max, c.Jain)
		}
	}
	return b.String()
}
