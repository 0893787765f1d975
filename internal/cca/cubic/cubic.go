// Package cubic implements TCP Cubic (RFC 8312): window growth follows a
// cubic function of time since the last decrease. Like Reno it is
// loss-based and not delay-convergent; Fig. 7 shows its bounded unfairness
// under delayed-ACK burstiness, and §5.4 notes that the faster flow's cubic
// overshoot is what keeps the unfairness bounded.
package cubic

import (
	"math"
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

const (
	// initialCwndPkts is the initial window.
	initialCwndPkts = 10
	// cubicC is the cubic scaling constant in packets/s^3.
	cubicC = 0.4
	// beta is the multiplicative decrease factor.
	beta = 0.7
)

// config parameterizes Cubic. Fast convergence (the wMax reduction
// heuristic) and the TCP-friendly Reno-tracking floor are always on.
type config struct {
	mss int
	// noRenoFloor turns the TCP-friendly floor off, for tests of plain
	// cubic growth.
	noRenoFloor bool
}

// sender is a Cubic sender; the registry is its only constructor. Window
// arithmetic is done in packets, as in the RFC, and converted to bytes at
// the interface boundary.
type sender struct {
	cfg      config
	cwnd     float64 // packets
	ssthresh float64 // packets

	wMax       float64
	epochStart time.Duration
	k          float64
	origin     float64
	ackCount   float64 // packets acked since epoch start (for wTCP)
	lastRTT    time.Duration
}

// newSender returns a Cubic instance.
func newSender(cfg config) *sender {
	if cfg.mss <= 0 {
		cfg.mss = 1500
	}
	return &sender{cfg: cfg, cwnd: initialCwndPkts, ssthresh: math.Inf(1)}
}

func init() {
	cca.Register("cubic", func(mss int, _ *rand.Rand) cca.Algorithm {
		return newSender(config{mss: mss})
	})
}

// Name implements cca.Algorithm.
func (c *sender) Name() string { return "cubic" }

// Window implements cca.Algorithm.
func (c *sender) Window() int { return int(c.cwnd * float64(c.cfg.mss)) }

// PacingRate implements cca.Algorithm.
func (c *sender) PacingRate() units.Rate { return 0 }

// OnAck implements cca.Algorithm.
func (c *sender) OnAck(s cca.AckSignal) {
	if s.RTT > 0 {
		c.lastRTT = s.RTT
	}
	if s.AckedBytes <= 0 {
		return
	}
	ackedPkts := float64(s.AckedBytes) / float64(c.cfg.mss)
	if c.cwnd < c.ssthresh {
		c.cwnd += ackedPkts
		return
	}
	if c.epochStart == 0 {
		c.epochStart = s.Now
		c.ackCount = 0
		if c.cwnd < c.wMax {
			c.k = math.Cbrt((c.wMax - c.cwnd) / cubicC)
			c.origin = c.wMax
		} else {
			c.k = 0
			c.origin = c.cwnd
		}
	}
	c.ackCount += ackedPkts
	t := (s.Now - c.epochStart + c.lastRTT).Seconds()
	target := c.origin + cubicC*math.Pow(t-c.k, 3)
	if target > c.cwnd {
		c.cwnd += (target - c.cwnd) / c.cwnd * ackedPkts
	} else {
		// Slow "reconnaissance" growth below the target.
		c.cwnd += ackedPkts / (100 * c.cwnd)
	}
	if !c.cfg.noRenoFloor && c.lastRTT > 0 {
		rttCount := (s.Now - c.epochStart).Seconds() / c.lastRTT.Seconds()
		// b is a variable so that Reno's slope 3(1−β)/(1+β) is computed
		// in float64 steps; as a constant expression it would round once
		// and differ in the last bit.
		b := float64(beta)
		wTCP := c.wMax*b + 3*(1-b)/(1+b)*rttCount
		if wTCP > c.cwnd {
			c.cwnd = wTCP
		}
	}
}

// OnLoss implements cca.Algorithm.
func (c *sender) OnLoss(s cca.LossSignal) {
	if !s.NewEvent {
		return
	}
	if s.Timeout {
		c.wMax = c.cwnd
		c.ssthresh = maxF(c.cwnd*beta, 2)
		c.cwnd = 1
		c.epochStart = 0
		return
	}
	if c.cwnd < c.wMax { // fast convergence
		c.wMax = c.cwnd * (2 - beta) / 2
	} else {
		c.wMax = c.cwnd
	}
	c.cwnd = maxF(c.cwnd*beta, 2)
	c.ssthresh = c.cwnd
	c.epochStart = 0
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
