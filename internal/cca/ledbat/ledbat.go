// Package ledbat implements LEDBAT (RFC 6817), the low-extra-delay
// background transport the paper cites as the canonical minimum-filter
// delay CCA. LEDBAT estimates queueing delay as current delay minus a
// windowed minimum ("base delay") and steers it toward a fixed TARGET
// (100 ms in the RFC; configurable here) with a linear controller:
//
//	cwnd += GAIN · (TARGET − queueing) / TARGET   per RTT
//
// At equilibrium the queueing delay equals TARGET, so on an ideal path
// LEDBAT is delay-convergent with δ(C) → 0 — squarely inside Theorem 1's
// starvation regime, and with the same min-filter poisoning weakness as
// Copa (§5.1): one spuriously low base-delay sample inflates the
// queueing estimate forever (until the base window rolls).
package ledbat

import (
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

// Config parameterizes LEDBAT.
type Config struct {
	MSS int
	// Target is the queueing-delay setpoint (RFC default 100 ms; the
	// paper-era uTP deployments used 25 ms — smaller targets are more
	// starvation-prone, so we default to 25 ms to match deployment).
	Target time.Duration
	// Gain is the controller gain in packets per RTT at full error
	// (default 1, the RFC's "must not be faster than slow start").
	Gain float64
	// BaseWindow bounds how long a base-delay sample is remembered
	// (RFC: minutes; default 10 min ≈ lifetime for our runs). 0 keeps
	// the lifetime minimum.
	BaseWindow time.Duration
	// InitialCwndPkts is the initial window (default 4).
	InitialCwndPkts float64
	// BaseDelayHint pins the base-delay estimate (oracular Rm knowledge
	// for the theory constructions).
	BaseDelayHint time.Duration
}

// Ledbat is a LEDBAT sender.
type Ledbat struct {
	cfg  Config
	cwnd float64 // packets

	baseLifetime cca.MinRTT
	baseWindowed cca.WindowedMin

	epochStart  time.Duration
	epochMinRTT time.Duration
}

// New returns a LEDBAT instance.
func New(cfg Config) *Ledbat {
	if cfg.MSS <= 0 {
		cfg.MSS = 1500
	}
	if cfg.Target <= 0 {
		cfg.Target = 25 * time.Millisecond
	}
	if cfg.Gain <= 0 {
		cfg.Gain = 1
	}
	if cfg.InitialCwndPkts <= 0 {
		cfg.InitialCwndPkts = 4
	}
	l := &Ledbat{cfg: cfg, cwnd: cfg.InitialCwndPkts}
	l.baseWindowed.Window = cfg.BaseWindow
	return l
}

func init() {
	cca.Register("ledbat", func(mss int, _ *rand.Rand) cca.Algorithm {
		return New(Config{MSS: mss})
	})
}

// Name implements cca.Algorithm.
func (l *Ledbat) Name() string { return "ledbat" }

// Window implements cca.Algorithm.
func (l *Ledbat) Window() int { return int(l.cwnd * float64(l.cfg.MSS)) }

// PacingRate implements cca.Algorithm.
func (l *Ledbat) PacingRate() units.Rate { return 0 }

// baseDelay returns the current base-delay estimate.
func (l *Ledbat) baseDelay() time.Duration {
	if l.cfg.BaseDelayHint > 0 {
		return l.cfg.BaseDelayHint
	}
	if l.cfg.BaseWindow > 0 {
		return time.Duration(l.baseWindowed.Get(0))
	}
	return l.baseLifetime.Get(0)
}

// OnAck implements cca.Algorithm.
func (l *Ledbat) OnAck(s cca.AckSignal) {
	if s.RTT <= 0 {
		return
	}
	if l.cfg.BaseWindow > 0 {
		l.baseWindowed.Update(s.Now, float64(s.RTT))
	} else {
		l.baseLifetime.Update(s.Now, s.RTT)
	}
	if l.epochMinRTT == 0 || s.RTT < l.epochMinRTT {
		l.epochMinRTT = s.RTT
	}
	if l.epochStart == 0 {
		l.epochStart = s.Now
		return
	}
	if s.Now-l.epochStart < s.RTT {
		return
	}
	rtt := l.epochMinRTT
	l.epochStart = s.Now
	l.epochMinRTT = 0

	base := l.baseDelay()
	if base <= 0 {
		return
	}
	queueing := rtt - base
	offTarget := float64(l.cfg.Target-queueing) / float64(l.cfg.Target)
	// The RFC caps the per-RTT increase at GAIN (slow-start parity) and
	// lets decreases scale with the (possibly large) negative error.
	delta := l.cfg.Gain * offTarget
	if delta > l.cfg.Gain {
		delta = l.cfg.Gain
	}
	l.cwnd += delta
	if l.cwnd < 2 {
		l.cwnd = 2
	}
}

// OnLoss implements cca.Algorithm: halve, per the RFC.
func (l *Ledbat) OnLoss(s cca.LossSignal) {
	if !s.NewEvent {
		return
	}
	l.cwnd /= 2
	if l.cwnd < 2 {
		l.cwnd = 2
	}
}
