package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); it sorts a copy. With a
// handful of samples a high quantile is, by construction, close to the
// maximum — the README says so where it matters. (internal/metrics has
// the same estimator; the benchmark keeps its own so that a change to the
// program under test can never change how it is measured.)
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietLow and quietHigh are what every end-to-end value goes through: a
// run is cut into slices (a second of service traffic, a pass, a
// realization, a set-up), each slice gives one time or rate, and the run
// reports the quartile on the undisturbed side — the lower one for times,
// the upper one for rates. The sizing machine slows down by a fifth to a
// half for seconds to minutes at a stretch (README, "Bounds and the
// machine") and never speeds up, so the quiet quartile repeats from run to
// run where the median of the same slices does not.
func quietLow(xs []float64) float64  { return quantile(xs, 0.25) }
func quietHigh(xs []float64) float64 { return quantile(xs, 0.75) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// seconds/millis convert a duration to the float units the ledger reports.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mix is splitmix64: the one place -seed turns into per-stream seeds.
// stream names a use ("paper_pairs pass 3 scenario 7"), so no two inputs
// of a run share a seed and the same -seed always yields the same inputs.
func mix(seed int64, stream ...int64) int64 {
	z := uint64(seed)
	for _, s := range stream {
		z += 0x9e3779b97f4a7c15 + uint64(s)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	// Emulator seeds are int64 with 0 meaning "default": keep them
	// positive, non-zero, and below 2^40 so they survive JSON untouched.
	return int64(z&(1<<40-1)) + 1
}

// digest accumulates a canonical text rendering of simulated statistics;
// two runs that simulated the same thing produce the same hex string.
type digest struct{ h [32]byte }

func (d *digest) add(format string, args ...any) {
	sum := sha256.New()
	sum.Write(d.h[:])
	fmt.Fprintf(sum, format, args...)
	copy(d.h[:], sum.Sum(nil))
}

func (d *digest) String() string { return hex.EncodeToString(d.h[:8]) }

// timeLoop times reps rounds of n calls of fn and returns the median
// per-call cost in nanoseconds. Isolated layer drivers all go through it,
// so "one number per public function" means the same thing everywhere.
func timeLoop(reps, n int, fn func(i int)) float64 {
	per := make([]float64, reps)
	k := 0
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(k)
			k++
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// fits reports whether more work, expected to take d going by what came
// before it, would still finish inside the measurement window. Closed-loop
// phases stop on it, so a 16 s operation in a 20 s window runs once whether
// it took 15 s or 19 s.
func fits(deadline time.Time, d time.Duration) bool {
	return time.Now().Add(d).Before(deadline)
}
