package jitter

import (
	"math/rand"
	"time"
)

// This file holds the stateful real-world jitter sources beyond the basic
// policies: bursty link-layer holds and periodic scheduler stalls, the
// concrete mechanisms §2.1 lists (Wi-Fi aggregation, cellular schedulers,
// OS thread scheduling).

// GilbertElliott models bursty jitter with a two-state Markov chain, the
// classic model for link-layer behaviour: in the Good state packets pass
// with no extra delay; in the Bad state (an aggregation round, an ARQ
// retry burst) every packet is held for BadDelay. Transitions are
// evaluated per packet.
type GilbertElliott struct {
	// PGoodToBad and PBadToGood are per-packet transition probabilities.
	PGoodToBad, PBadToGood float64
	// BadDelay is the hold applied in the Bad state.
	BadDelay time.Duration
	// Rng drives the chain; required.
	Rng *rand.Rand

	bad bool
}

// Delay implements Policy.
func (g *GilbertElliott) Delay(time.Duration, int64) time.Duration {
	if g.bad {
		if g.Rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else {
		if g.Rng.Float64() < g.PGoodToBad {
			g.bad = true
		}
	}
	if g.bad {
		return g.BadDelay
	}
	return 0
}

// Bound implements Policy.
func (g *GilbertElliott) Bound() time.Duration { return g.BadDelay }

// PeriodicSpike stalls the path for SpikeLen once every Period — the
// signature of a cellular scheduler reallocating resources or an OS
// housekeeping tick. Packets arriving during [k·Period, k·Period+SpikeLen)
// are held until the spike ends.
type PeriodicSpike struct {
	Period   time.Duration
	SpikeLen time.Duration
}

// Delay implements Policy.
func (p PeriodicSpike) Delay(now time.Duration, _ int64) time.Duration {
	if p.Period <= 0 || p.SpikeLen <= 0 {
		return 0
	}
	phase := now % p.Period
	if phase < p.SpikeLen {
		return p.SpikeLen - phase
	}
	return 0
}

// Bound implements Policy.
func (p PeriodicSpike) Bound() time.Duration { return p.SpikeLen }
