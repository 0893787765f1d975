package core

import (
	"math"
	"time"

	"starvation/internal/cca/algo1"
	"starvation/internal/cca/bbr"
	"starvation/internal/cca/constwnd"
	"starvation/internal/cca/copa"
	"starvation/internal/cca/fast"
	"starvation/internal/cca/vegas"
	"starvation/internal/cca/vivace"
	"starvation/internal/endpoint"
	"starvation/internal/units"

	// The CCAs whose defaults no contract reads, imported so that core's
	// entry points can name every registered CCA.
	_ "starvation/internal/cca/allegro"
	_ "starvation/internal/cca/cubic"
	_ "starvation/internal/cca/ledbat"
	_ "starvation/internal/cca/reno"
	_ "starvation/internal/cca/verus"
)

// This file holds each registered CCA's contract in the sense of the
// Contracts paper (Agarwal, Arun, Seshan): the delay band [dmin(C),
// dmax(C)] one flow settles in on an ideal path of rate C and propagation
// RTT Rm, at the CCA's default parameters. Theorem 1 turns on its width:
// jitter D > 2·δmax starves the CCA.

// contract is one CCA's predicted band. A nil band marks a CCA that is not
// delay-convergent: its delay is set by the buffer, not by C (§5.4).
type contract struct {
	band   func(c units.Rate, rm time.Duration) (lo, hi time.Duration)
	fitted bool // read off measurements, not derived from the algorithm
}

// kind says where the band comes from, for Sweep.Contract.
func (k contract) kind() string {
	switch {
	case k.band == nil:
		return "not delay-convergent"
	case k.fitted:
		return "fitted"
	}
	return "closed form"
}

// contracts is keyed by cca.Names(); TestContractCoverage fails when a
// registered CCA has no entry.
var contracts = map[string]contract{
	// Vegas holds α..β packets queued (§4.1): any point of the band is an
	// equilibrium, so the band, not the point one run lands on, is δ(C).
	"vegas": {band: func(c units.Rate, rm time.Duration) (time.Duration, time.Duration) {
		return rm + queueDelay(c, vegas.DefaultAlpha), rm + queueDelay(c, vegas.DefaultBeta)
	}},
	// FAST holds exactly α packets: RTT = Rm + α/C (§5.1).
	"fast": {band: func(c units.Rate, rm time.Duration) (time.Duration, time.Duration) {
		d := rm + queueDelay(c, fast.DefaultAlpha)
		return d, d
	}},
	"copa": {band: copaBand},
	// Pacing-limited BBR (§5.2): the probe gain bounds the standing queue,
	// so d ∈ [Rm, ProbeGain·Rm]. The cwnd-limited line 2·Rm + n·α/C needs
	// competition and jitter; an ideal single-flow path never reaches it.
	"bbr": {band: func(_ units.Rate, rm time.Duration) (time.Duration, time.Duration) {
		return rm, time.Duration(bbr.ProbeGain * float64(rm))
	}},
	// Vivace (§5.3): rate probing by ±ε keeps at most ε·Rm queued.
	"vivace": {band: func(_ units.Rate, rm time.Duration) (time.Duration, time.Duration) {
		return rm, rm + time.Duration(vivace.DefaultEpsilon*float64(rm))
	}},
	// A fixed window of W packets: RTT = max(Rm, W/C), at any rate.
	"constwnd": {band: func(c units.Rate, rm time.Duration) (time.Duration, time.Duration) {
		d := max(rm, queueDelay(c, constwnd.DefaultPkts))
		return d, d
	}},
	"algo1": {band: algo1Band},
	// LEDBAT steers its queueing toward TARGET (25 ms); the RFC's linear
	// controller with RTT-delayed feedback rings around the setpoint.
	"ledbat": {fitted: true, band: func(_ units.Rate, rm time.Duration) (time.Duration, time.Duration) {
		return rm + 8*time.Millisecond, rm + 35*time.Millisecond
	}},
	// Verus targets delays near R·Dmin = 2·Rm, with profile-resolution
	// oscillation.
	"verus": {fitted: true, band: func(_ units.Rate, rm time.Duration) (time.Duration, time.Duration) {
		return rm, 3 * rm
	}},
	"reno":    {},
	"cubic":   {},
	"allegro": {},
}

// queueDelay is the time n packets of endpoint.DefaultMSS bytes take to
// drain at rate c.
func queueDelay(c units.Rate, n float64) time.Duration {
	return time.Duration(n * float64(endpoint.DefaultMSS) * 8 / float64(c) * float64(time.Second))
}

// copaBand is Copa's band at δ = copa.DefaultDelta. Copa oscillates around
// a standing queue of 1/δ packets by ±2/δ packets; the queue cannot drain
// below empty, so the band is [Rm, Rm + 3/δ packet times]: 6 for δ = 0.5,
// where the paper's table in §2.2 cites δ(C) ≈ 4α/C.
func copaBand(c units.Rate, rm time.Duration) (lo, hi time.Duration) {
	delta := copa.DefaultDelta
	pktTime := float64(endpoint.DefaultMSS) * 8 / float64(c) // seconds per packet
	mid := 1 / delta * pktTime                               // standing target: 1/δ packets
	halfOsc := 2 * pktTime / delta
	return rm, rm + time.Duration((mid+halfOsc)*float64(time.Second))
}

// algo1Band inverts Algorithm 1's map μ(d) = μ−·s^((Rmax−(d−Rm))/D) at
// the default parameters: one flow settles where its target rate is C, and
// one multiplicative decrease moves the target to B·C, D·log_s(1/B) of
// queueing further on.
func algo1Band(c units.Rate, rm time.Duration) (lo, hi time.Duration) {
	queue := func(rate float64) time.Duration {
		steps := math.Log(rate/float64(algo1.DefaultMuMin)) / math.Log(algo1.DefaultS)
		return max(algo1.DefaultRmaxOffset-time.Duration(steps*float64(algo1.DefaultD)), 0)
	}
	return rm + queue(float64(c)), rm + queue(algo1.DefaultB*float64(c))
}
