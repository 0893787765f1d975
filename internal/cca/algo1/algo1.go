// Package algo1 implements Algorithm 1 of the paper (§6.3): a
// delay-convergent CCA built on the exponential rate-delay mapping
//
//	μ(d) = μ− · s^((Rmax − (d − Rm)) / D)
//
// which spaces rates a factor s apart by at least D of delay, so bounded
// measurement ambiguity ≤ D can cause at most s-unfairness over the rate
// range [μ−, μ+] with μ+/μ− = s^((Rmax−Rm−D)/D) — exponentially wider than
// the Vegas family's O(Rmax/D) (Equation 1 vs Equation 2).
//
// Following the paper's CCAC-guided tuning, the update is AIMD (additive
// increase a, multiplicative decrease b) and fires once per Rm independent
// of the number of ACKs received.
package algo1

import (
	"math"
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

// The mapping's parameters.
const (
	// DefaultD is the designed-for non-congestive jitter bound.
	DefaultD = 10 * time.Millisecond
	// DefaultS is the tolerated unfairness ratio.
	DefaultS = 2
	// DefaultRmaxOffset sets Rmax = Rm + DefaultRmaxOffset, the maximum
	// tolerable queueing delay.
	DefaultRmaxOffset = 120 * time.Millisecond
	// DefaultMuMin is μ−, the lowest supported rate: 100 Kbit/s.
	DefaultMuMin units.Rate = 100e3
	// DefaultB is the multiplicative decrease factor in (0,1).
	DefaultB = 0.9
)

// defaultA is the registry's additive increase per Rm.
const defaultA units.Rate = 500e3

// Config parameterizes Algorithm 1.
type Config struct {
	MSS int
	// Rm is the propagation RTT. The paper's algorithm has no Rm discovery
	// mechanism (§6.3 discusses why discovery is hard); when zero, the
	// lifetime minimum RTT is used as the estimate.
	Rm time.Duration
	// A is the additive increase per Rm (default 500 Kbit/s).
	A units.Rate
	// InitialRate is the starting rate (default μ−).
	InitialRate units.Rate
	// AIAD replaces the multiplicative decrease with a subtractive one
	// (μ −= A), the Vegas/Copa-style update the paper's CCAC analysis
	// rejected: "use AIMD instead of the AIAD used by Vegas and Copa
	// because the fairness properties of AIMD are critical in the
	// presence of measurement ambiguity". Exposed for the ablation bench.
	AIAD bool
	// PerAck applies the update on every acknowledgment instead of once
	// per Rm — the other CCAC-guided detail ("change the rate by the same
	// amount every RTT independent of the number of ACKs received").
	// Exposed for the ablation bench: per-ACK updates make a flow's
	// adjustment speed proportional to its own rate, which amplifies
	// rate differences under ambiguity.
	PerAck bool
}

// Algo1 is an Algorithm 1 sender.
type Algo1 struct {
	cfg  Config
	mu   float64 // rate, bit/s
	base cca.MinRTT

	lastRTT time.Duration
}

// New returns an Algorithm 1 instance.
func New(cfg Config) *Algo1 {
	if cfg.MSS <= 0 {
		cfg.MSS = 1500
	}
	if cfg.A <= 0 {
		cfg.A = defaultA
	}
	if cfg.InitialRate <= 0 {
		cfg.InitialRate = DefaultMuMin
	}
	return &Algo1{cfg: cfg, mu: float64(cfg.InitialRate)}
}

func init() {
	cca.Register("algo1", func(mss int, _ *rand.Rand) cca.Algorithm {
		return New(Config{MSS: mss})
	})
}

// Name implements cca.Algorithm.
func (a *Algo1) Name() string { return "algo1" }

// rmEstimate returns the propagation-RTT estimate in use.
func (a *Algo1) rmEstimate() time.Duration {
	if a.cfg.Rm > 0 {
		return a.cfg.Rm
	}
	return a.base.Get(0)
}

// targetRate evaluates the exponential rate-delay mapping at RTT d.
func (a *Algo1) targetRate(d time.Duration) units.Rate {
	rm := a.rmEstimate()
	q := d - rm // estimated queueing delay
	if q < 0 {
		q = 0
	}
	exp := (DefaultRmaxOffset - q).Seconds() / DefaultD.Seconds()
	return units.Rate(float64(DefaultMuMin) * math.Pow(DefaultS, exp))
}

// Window implements cca.Algorithm: a safety cap of 2·μ·Rmax keeps the flow
// resilient to sudden capacity drops, per the paper's discussion.
func (a *Algo1) Window() int {
	rm := a.rmEstimate()
	if rm <= 0 {
		return 64 * a.cfg.MSS
	}
	rmax := rm + DefaultRmaxOffset
	w := int(2 * a.mu / 8 * rmax.Seconds())
	if min := 4 * a.cfg.MSS; w < min {
		return min
	}
	return w
}

// PacingRate implements cca.Algorithm.
func (a *Algo1) PacingRate() units.Rate { return units.Rate(a.mu) }

// TickInterval implements cca.Ticker: the update runs once per Rm,
// independent of ACK arrivals (a CCAC-guided design detail from §6.3).
func (a *Algo1) TickInterval() time.Duration {
	if rm := a.rmEstimate(); rm > 0 {
		return rm
	}
	return 10 * time.Millisecond
}

// OnTick implements cca.Ticker.
func (a *Algo1) OnTick(time.Duration) {
	if a.cfg.PerAck {
		return // updates happen in OnAck for the ablation variant
	}
	a.update(1)
}

// update applies one control step scaled by frac of a full per-Rm step.
func (a *Algo1) update(frac float64) {
	d := a.lastRTT
	if d <= 0 {
		// No measurement yet: probe upward gently.
		a.mu += float64(a.cfg.A) * frac
		return
	}
	if units.Rate(a.mu) < a.targetRate(d) {
		a.mu += float64(a.cfg.A) * frac
	} else if a.cfg.AIAD {
		a.mu -= float64(a.cfg.A) * frac
	} else {
		// b is a variable so that 1−b is computed in float64 (0.0999…98);
		// the constant expression 1-DefaultB would fold exactly to 0.1
		// and change the per-ACK ablation's step in its last bit.
		b := float64(DefaultB)
		a.mu *= 1 - (1-b)*frac
	}
	if a.mu < float64(DefaultMuMin) {
		a.mu = float64(DefaultMuMin)
	}
}

// OnAck implements cca.Algorithm.
func (a *Algo1) OnAck(s cca.AckSignal) {
	if s.RTT > 0 {
		a.lastRTT = s.RTT
		a.base.Update(s.Now, s.RTT)
	}
	if a.cfg.PerAck && s.AckedBytes > 0 {
		// One full step per window of ACKs: the per-ACK ablation. Faster
		// flows take more steps per RTT — the scaling pathology the
		// default per-Rm update deliberately avoids.
		rm := a.rmEstimate()
		if rm <= 0 {
			return
		}
		windowBytes := a.mu / 8 * rm.Seconds()
		if windowBytes <= 0 {
			return
		}
		a.update(float64(s.AckedBytes) / windowBytes)
	}
}

// OnLoss implements cca.Algorithm: on a new loss event the rate backs off
// multiplicatively (short-buffer resilience; not part of the paper's
// pseudocode but required for a runnable transport).
func (a *Algo1) OnLoss(s cca.LossSignal) {
	if !s.NewEvent {
		return
	}
	a.mu *= DefaultB
	if a.mu < float64(DefaultMuMin) {
		a.mu = float64(DefaultMuMin)
	}
}
