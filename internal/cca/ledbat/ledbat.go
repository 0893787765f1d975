// Package ledbat implements LEDBAT (RFC 6817), the low-extra-delay
// background transport the paper cites as the canonical minimum-filter
// delay CCA. LEDBAT estimates queueing delay as current delay minus a
// windowed minimum ("base delay") and steers it toward a fixed TARGET
// (100 ms in the RFC, 25 ms here) with a linear controller:
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

// defaultTarget is the registry's queueing-delay setpoint. The RFC's
// default is 100 ms; the paper-era uTP deployments used 25 ms, and smaller
// targets are more starvation-prone, so this matches deployment.
const defaultTarget = 25 * time.Millisecond

const (
	// gain is the controller gain in packets per RTT at full error, the
	// RFC's "must not be faster than slow start".
	gain = 1
	// initialCwndPkts is the initial window.
	initialCwndPkts = 4
)

// Config parameterizes LEDBAT.
type Config struct {
	MSS int
	// Target is the queueing-delay setpoint (default 25 ms). The
	// registry's "ledbat" runs at the default; the Theorem 1 generality
	// run (X-T1-gen) needs 5 ms.
	Target time.Duration
	// baseWindow, when nonzero, bounds how long a base-delay sample is
	// remembered; zero keeps the lifetime minimum (the RFC remembers
	// minutes, a lifetime for these runs).
	baseWindow time.Duration
}

// Ledbat is a LEDBAT sender.
type Ledbat struct {
	cfg  Config
	cwnd float64 // packets
	// rm, when nonzero, pins the base-delay estimate (see Restart).
	rm time.Duration

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
		cfg.Target = defaultTarget
	}
	l := &Ledbat{cfg: cfg, cwnd: initialCwndPkts}
	l.baseWindowed.Window = cfg.baseWindow
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

// Restart resumes the flow from a converged state for the Theorem 1
// construction: a window of cwndPkts and the base delay pinned at rm.
func (l *Ledbat) Restart(rm time.Duration, cwndPkts float64) {
	l.rm = rm
	l.cwnd = cwndPkts
}

// baseDelay returns the current base-delay estimate.
func (l *Ledbat) baseDelay() time.Duration {
	if l.rm > 0 {
		return l.rm
	}
	if l.cfg.baseWindow > 0 {
		return time.Duration(l.baseWindowed.Get(0))
	}
	return l.baseLifetime.Get(0)
}

// OnAck implements cca.Algorithm.
func (l *Ledbat) OnAck(s cca.AckSignal) {
	if s.RTT <= 0 {
		return
	}
	if l.cfg.baseWindow > 0 {
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
	delta := gain * offTarget
	if delta > gain {
		delta = gain
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
