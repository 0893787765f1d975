// Package fast implements FAST TCP (Wei, Jin, Low & Hegde, 2006). FAST
// shares Vegas's equilibrium — Alpha packets queued per flow, RTT of
// Rm + α/C — but reaches it with a multiplicative window update each RTT,
// so it converges quickly even on large-BDP paths. On an ideal path
// δ(C) → 0, making it exactly as starvation-prone as Vegas (Fig. 3).
package fast

import (
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

// DefaultAlpha is Config.Alpha's default.
const DefaultAlpha = 4

// Config parameterizes FAST.
type Config struct {
	MSS int
	// Alpha is the target number of queued packets (default DefaultAlpha).
	Alpha float64
	// Gamma in (0, 1] is the update smoothing factor (default 0.5).
	Gamma float64
	// InitialCwndPkts is the initial window (default 4).
	InitialCwndPkts float64
	// BaseRTT optionally pins the minimum-RTT estimate.
	BaseRTT time.Duration
}

// Fast is a FAST TCP sender.
type Fast struct {
	cfg  Config
	cwnd float64 // packets
	base cca.MinRTT

	epochStart  time.Duration
	epochMinRTT time.Duration
}

// New returns a FAST instance.
func New(cfg Config) *Fast {
	if cfg.MSS <= 0 {
		cfg.MSS = 1500
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.Gamma <= 0 || cfg.Gamma > 1 {
		cfg.Gamma = 0.5
	}
	if cfg.InitialCwndPkts <= 0 {
		cfg.InitialCwndPkts = 4
	}
	return &Fast{cfg: cfg, cwnd: cfg.InitialCwndPkts}
}

func init() {
	cca.Register("fast", func(mss int, _ *rand.Rand) cca.Algorithm {
		return New(Config{MSS: mss})
	})
}

// Name implements cca.Algorithm.
func (f *Fast) Name() string { return "fast" }

// Window implements cca.Algorithm.
func (f *Fast) Window() int { return int(f.cwnd * float64(f.cfg.MSS)) }

// PacingRate implements cca.Algorithm.
func (f *Fast) PacingRate() units.Rate { return 0 }

// OnAck implements cca.Algorithm.
func (f *Fast) OnAck(s cca.AckSignal) {
	if s.RTT <= 0 {
		return
	}
	if f.cfg.BaseRTT == 0 {
		f.base.Update(s.Now, s.RTT)
	}
	if f.epochMinRTT == 0 || s.RTT < f.epochMinRTT {
		f.epochMinRTT = s.RTT
	}
	if f.epochStart == 0 {
		f.epochStart = s.Now
		return
	}
	if s.Now-f.epochStart < s.RTT {
		return
	}
	rtt := f.epochMinRTT
	f.epochStart = s.Now
	f.epochMinRTT = 0

	base := f.cfg.BaseRTT
	if base == 0 {
		base = f.base.Get(0)
	}
	if base <= 0 || rtt <= 0 {
		return
	}
	// w <- min(2w, (1-γ)w + γ(base/RTT * w + α))
	target := (1-f.cfg.Gamma)*f.cwnd +
		f.cfg.Gamma*(float64(base)/float64(rtt)*f.cwnd+f.cfg.Alpha)
	if target > 2*f.cwnd {
		target = 2 * f.cwnd
	}
	if target < 2 {
		target = 2
	}
	f.cwnd = target
}

// OnLoss implements cca.Algorithm.
func (f *Fast) OnLoss(s cca.LossSignal) {
	if !s.NewEvent {
		return
	}
	f.cwnd = maxF(f.cwnd/2, 2)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
