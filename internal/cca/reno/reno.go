// Package reno implements TCP NewReno, the canonical loss-based AIMD CCA.
// The paper (§5.4) uses it as the reference for non-delay-convergent
// behaviour: its equilibrium is encoded in the frequency of loss-induced
// oscillation rather than an absolute delay, which is why bounded delay
// jitter unfairness stays bounded (Fig. 7) instead of becoming starvation.
package reno

import (
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

// initialCwndPkts is the initial window (RFC 6928).
const initialCwndPkts = 10

// Config parameterizes Reno.
type Config struct {
	// MSS is the segment size in bytes.
	MSS int
	// ReactToECN makes ECE marks trigger a multiplicative decrease.
	ReactToECN bool
	// LossBlind disables the cwnd reaction to loss (the transport still
	// retransmits). §6.4's conjectured starvation-free design reacts to
	// ECN — an unambiguous congestion signal — and ignores the small loss
	// rates that non-congestive elements can inject.
	LossBlind bool
}

// Reno is a NewReno sender.
type Reno struct {
	cfg      Config
	cwnd     float64 // bytes
	ssthresh float64 // bytes

	lastDecrease time.Duration
	lastRTT      time.Duration
}

// New returns a NewReno instance.
func New(cfg Config) *Reno {
	if cfg.MSS <= 0 {
		cfg.MSS = 1500
	}
	return &Reno{
		cfg:      cfg,
		cwnd:     initialCwndPkts * float64(cfg.MSS),
		ssthresh: 1 << 30,
	}
}

func init() {
	cca.Register("reno", func(mss int, _ *rand.Rand) cca.Algorithm {
		return New(Config{MSS: mss})
	})
}

// Name implements cca.Algorithm.
func (r *Reno) Name() string { return "reno" }

// Window implements cca.Algorithm.
func (r *Reno) Window() int { return int(r.cwnd) }

// PacingRate implements cca.Algorithm. Reno is purely ACK-clocked.
func (r *Reno) PacingRate() units.Rate { return 0 }

// OnAck implements cca.Algorithm.
func (r *Reno) OnAck(s cca.AckSignal) {
	if s.RTT > 0 {
		r.lastRTT = s.RTT
	}
	if s.ECE && r.cfg.ReactToECN {
		r.decrease(s.Now)
		return
	}
	if s.AckedBytes <= 0 {
		return
	}
	mss := float64(r.cfg.MSS)
	if r.cwnd < r.ssthresh {
		// Slow start: one MSS per acked MSS.
		r.cwnd += float64(s.AckedBytes)
	} else {
		// Congestion avoidance: one MSS per window per RTT.
		r.cwnd += mss * float64(s.AckedBytes) / r.cwnd
	}
}

// OnLoss implements cca.Algorithm.
func (r *Reno) OnLoss(s cca.LossSignal) {
	if !s.NewEvent || r.cfg.LossBlind {
		return
	}
	if s.Timeout {
		r.ssthresh = maxF(r.cwnd/2, 2*float64(r.cfg.MSS))
		r.cwnd = float64(r.cfg.MSS)
		return
	}
	r.decrease(s.Now)
}

// decrease performs the multiplicative decrease, at most once per RTT so
// that a burst of marks/losses in one window counts as one event.
func (r *Reno) decrease(now time.Duration) {
	if r.lastRTT > 0 && now-r.lastDecrease < r.lastRTT {
		return
	}
	r.lastDecrease = now
	r.ssthresh = maxF(r.cwnd/2, 2*float64(r.cfg.MSS))
	r.cwnd = r.ssthresh
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
