// Package rng builds the deterministic random generators every randomized
// element of the emulator owns: BBR's ProbeBW phase, PCC Allegro/Vivace's
// randomized monitor intervals, jitter policies, loss and fault gates, RED
// marking. Derive seeds the generators of a flow set: one stream per
// (flow, consumer) pair of a run, none shared.
//
// A math/rand source seeds 607 words of state (~12 µs) when it is built, and
// most generators handed out are never drawn from: the CCAs that ignore
// theirs, the simulator's own, every generator built only to validate a
// spec. New therefore records the seed and builds that state on the first
// draw. Streams are unchanged: after any sequence of Seed calls a generator
// from New yields exactly what rand.New(rand.NewSource(seed)) would.
package rng

import "math/rand"

// New returns a generator whose every stream equals the one
// rand.New(rand.NewSource(seed)) produces. It costs two small allocations
// until the first draw; Seed only records the new seed, and a generator
// already built is re-seeded in place at the next draw, without allocating.
func New(seed int64) *rand.Rand { return rand.New(&source{seed: seed, stale: true}) }

// source is a rand.Source64 that builds its math/rand source on demand.
type source struct {
	src   rand.Source64 // nil until the first draw
	seed  int64
	stale bool // seed has not been applied to src yet
}

// Seed records seed; the next draw applies it.
func (s *source) Seed(seed int64) { s.seed, s.stale = seed, true }

func (s *source) Int63() int64 {
	if s.stale {
		s.apply()
	}
	return s.src.Int63()
}

func (s *source) Uint64() uint64 {
	if s.stale {
		s.apply()
	}
	return s.src.Uint64()
}

// apply builds the source at the recorded seed, or re-seeds the one built
// by an earlier draw.
func (s *source) apply() {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	} else {
		s.src.Seed(s.seed)
	}
	s.stale = false
}
