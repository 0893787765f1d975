// Package metrics computes the fairness and efficiency statistics the paper
// reports: per-flow throughput (Definition 2), throughput ratios (the
// starvation criterion of Definition 3) and Jain's fairness index.
package metrics

import (
	"math"
	"time"

	"starvation/internal/units"
)

// JainIndex returns Jain's fairness index of the allocations: 1 means
// perfectly equal shares; 1/n means one flow holds everything.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1 // all-zero allocations are trivially equal
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Ratio returns max/min over the allocations, the s of Definition 2. An
// all-positive input is required for a finite answer; a zero minimum with a
// positive maximum returns +Inf (starvation in the limit).
func Ratio(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	min, max := xs[0], xs[0]
	for _, x := range xs[1:] {
		min = math.Min(min, x)
		max = math.Max(max, x)
	}
	if min <= 0 {
		if max <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return max / min
}

// FlowStat summarizes one flow at the end of a run.
type FlowStat struct {
	Name        string
	AckedBytes  int64
	SentBytes   int64
	RetxBytes   int64
	LossEvents  int64
	Timeouts    int64
	Throughput  units.Rate // Def. 2: acked bytes / active time
	MeanRTT     time.Duration
	MinRTT      time.Duration
	MaxRTT      time.Duration
	SteadyThpt  units.Rate // throughput over the measurement window only
	SteadyRTTLo time.Duration
	SteadyRTTHi time.Duration
}
