// Package copa implements Copa (Arun & Balakrishnan, NSDI 2018) in its
// default (non-competitive) mode. Copa targets a sending rate of
// 1/(δ·dq) packets/s where dq is the estimated queueing delay, computed as
// standing RTT minus minimum RTT. On an ideal path it oscillates within
// roughly [Rm + 1/(2δC)·…, Rm + 5/(2δC)·…]: δ(C) shrinks as C grows
// (Fig. 3), which per Theorem 1 makes even a 1 ms error in the minimum-RTT
// estimate enough to starve it (§5.1).
package copa

import (
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

// DefaultDelta is Copa's δ: the flow targets 1/δ packets of queueing.
const DefaultDelta = 0.5

// initialCwndPkts is the initial window.
const initialCwndPkts = 4

// config parameterizes Copa.
type config struct {
	mss int
	// minRTTWindow, when nonzero, bounds how long a minimum-RTT sample is
	// remembered; zero keeps the lifetime minimum (what the §5.1
	// poisoning exploits).
	minRTTWindow time.Duration
}

// sender is a Copa sender; the registry is its only constructor.
type sender struct {
	cfg  config
	cwnd float64 // packets

	minLifetime cca.MinRTT
	minWindowed cca.WindowedMin
	standing    cca.WindowedMin
	srtt        cca.EWMA

	velocity      float64
	direction     int // +1 up, -1 down
	lastDirSwitch time.Duration
	dirRTTs       int
	epochStart    time.Duration
	inSlowStart   bool
}

// newSender returns a Copa instance.
func newSender(cfg config) *sender {
	if cfg.mss <= 0 {
		cfg.mss = 1500
	}
	c := &sender{
		cfg:         cfg,
		cwnd:        initialCwndPkts,
		velocity:    1,
		direction:   1,
		inSlowStart: true,
	}
	c.srtt.Alpha = 0.125
	c.minWindowed.Window = cfg.minRTTWindow
	c.standing.Window = 50 * time.Millisecond // re-tuned to srtt/2 on acks
	return c
}

func init() {
	cca.Register("copa", func(mss int, _ *rand.Rand) cca.Algorithm {
		return newSender(config{mss: mss})
	})
}

// Name implements cca.Algorithm.
func (c *sender) Name() string { return "copa" }

// Window implements cca.Algorithm.
func (c *sender) Window() int { return int(c.cwnd * float64(c.cfg.mss)) }

// PacingRate implements cca.Algorithm. Copa paces at 2×cwnd/RTT to smooth
// bursts; we approximate with pure window control plus the sender's ACK
// clock, as the original user-space implementation is also window-driven.
func (c *sender) PacingRate() units.Rate { return 0 }

// minRTT returns Copa's current minimum-RTT estimate.
func (c *sender) minRTT() time.Duration {
	if c.cfg.minRTTWindow > 0 {
		return time.Duration(c.minWindowed.Get(0))
	}
	return c.minLifetime.Get(0)
}

// OnAck implements cca.Algorithm.
func (c *sender) OnAck(s cca.AckSignal) {
	if s.RTT <= 0 {
		return
	}
	srtt := time.Duration(c.srtt.Update(float64(s.RTT)))
	if c.cfg.minRTTWindow > 0 {
		c.minWindowed.Update(s.Now, float64(s.RTT))
	} else {
		c.minLifetime.Update(s.Now, s.RTT)
	}
	c.standing.Window = srtt / 2
	c.standing.Update(s.Now, float64(s.RTT))

	minRTT := c.minRTT()
	standingRTT := time.Duration(c.standing.Get(float64(s.RTT)))
	dq := standingRTT - minRTT
	if minRTT <= 0 || standingRTT <= 0 {
		return
	}

	// Target rate in packets/s; current rate from the window.
	var targetRate float64
	if dq <= 0 {
		targetRate = 1e12 // no queueing observed: push up
	} else {
		targetRate = 1 / (DefaultDelta * dq.Seconds())
	}
	currentRate := c.cwnd / standingRTT.Seconds()

	if c.inSlowStart {
		if currentRate < targetRate {
			// Double per RTT: +1 packet per acked packet.
			c.cwnd += float64(s.AckedBytes) / float64(c.cfg.mss)
			return
		}
		c.inSlowStart = false
	}

	dir := 1
	if currentRate > targetRate {
		dir = -1
	}
	c.updateVelocity(s.Now, dir, srtt)

	// cwnd changes by v/(δ·cwnd) packets per acked packet, i.e. v/δ per RTT.
	step := c.velocity / (DefaultDelta * c.cwnd) *
		(float64(s.AckedBytes) / float64(c.cfg.mss))
	if dir > 0 {
		c.cwnd += step
	} else {
		c.cwnd -= step
		if c.cwnd < 2 {
			c.cwnd = 2
		}
	}
}

// updateVelocity implements Copa's velocity doubling: once the direction
// has been stable for 3 RTTs, velocity doubles each RTT; any direction
// change resets it.
func (c *sender) updateVelocity(now time.Duration, dir int, srtt time.Duration) {
	if dir != c.direction {
		c.direction = dir
		c.velocity = 1
		c.dirRTTs = 0
		c.epochStart = now
		return
	}
	if srtt <= 0 || now-c.epochStart < srtt {
		return
	}
	c.epochStart = now
	c.dirRTTs++
	if c.dirRTTs >= 3 {
		c.velocity *= 2
		if c.velocity > 1<<16 {
			c.velocity = 1 << 16
		}
	}
}

// OnLoss implements cca.Algorithm.
func (c *sender) OnLoss(s cca.LossSignal) {
	if !s.NewEvent {
		return
	}
	c.inSlowStart = false
	c.cwnd = maxF(c.cwnd/2, 2)
	c.velocity = 1
	c.dirRTTs = 0
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
