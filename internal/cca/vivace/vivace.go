// Package vivace implements PCC Vivace (Dong et al., NSDI 2018), an
// online-learning rate-based CCA. The sender partitions time into monitor
// intervals (MIs); in each it measures throughput, loss, and the slope of
// RTT over time, scores the published utility function
//
//	U(x) = x^0.9 − b·x·max(0, dRTT/dt) − c·x·L      (x in Mbit/s)
//
// and performs gradient ascent with confidence amplification. Its rate
// probing of ±ε keeps equilibrium RTT within [Rm, ~1.05·Rm] (Fig. 3), so
// δmax ≈ Rm/20: tiny, and per Theorem 1 starvation-prone. §5.3 starves it
// by quantizing one flow's ACK arrivals to 60 ms boundaries, which destroys
// that flow's RTT-gradient estimate.
package vivace

import (
	"math"
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

// DefaultEpsilon is the probing fraction, the source of the 1.05·Rm
// oscillation ceiling the paper cites.
const DefaultEpsilon = 0.05

// The utility's coefficients: U(x) = x^exponent − latencyCoeff·x·dRTT/dt
// − lossCoeff·x·L.
const (
	exponent     = 0.9
	latencyCoeff = 900
	lossCoeff    = 11.35
)

// initialRate is the starting rate and minRate the rate's floor, in
// Mbit/s.
const initialRate, minRate = 1, 0.05

// config parameterizes Vivace.
type config struct {
	// rng randomizes MI durations and probe order; required.
	rng *rand.Rand
}

type phase int

const (
	phSlowStart phase = iota
	phProbeFirst
	phProbeSecond
)

type miStats struct {
	rate      float64 // Mbit/s target during the MI
	start     time.Duration
	ackedB    int64
	sentB     int64
	rttT      []float64 // seconds since MI start
	rttV      []float64 // RTT seconds
	utility   float64
	gradient  float64 // measured dRTT/dt
	completed bool
}

// sender is a PCC Vivace sender; the registry is its only constructor.
type sender struct {
	cfg  config
	rate float64 // Mbit/s
	srtt cca.EWMA

	ph      phase
	mi      miStats
	first   miStats // completed first MI of the probe pair
	upFirst bool    // probe order for this pair
	miLen   time.Duration
	// warmup marks the first half of each MI: deliveries still reflect
	// the previous rate, so counters are reset before measurement (see
	// the matching comment in package allegro).
	warmup   bool
	conf     int     // consecutive same-direction steps
	lastDir  int     // sign of last step
	prevUtil float64 // slow-start comparison
	havePrev bool
}

// newSender returns a Vivace instance.
func newSender(cfg config) *sender {
	if cfg.rng == nil {
		panic("vivace: config.rng is nil")
	}
	v := &sender{cfg: cfg, rate: initialRate, ph: phSlowStart,
		// The first interval only fills the pipeline; never score it.
		warmup: true}
	v.srtt.Alpha = 0.125
	v.miLen = 50 * time.Millisecond
	v.mi = miStats{rate: v.rate}
	return v
}

func init() {
	cca.Register("vivace", func(_ int, rng *rand.Rand) cca.Algorithm {
		return newSender(config{rng: rng})
	})
}

// Name implements cca.Algorithm.
func (v *sender) Name() string { return "vivace" }

// Window implements cca.Algorithm: Vivace is purely rate-based.
func (v *sender) Window() int { return 0 }

// PacingRate implements cca.Algorithm.
func (v *sender) PacingRate() units.Rate { return units.Mbps(v.currentMIRate()) }

func (v *sender) currentMIRate() float64 {
	r := v.mi.rate
	if r < minRate {
		r = minRate
	}
	return r
}

// TickInterval implements cca.Ticker.
func (v *sender) TickInterval() time.Duration { return v.miLen }

// OnTick implements cca.Ticker: an MI has ended.
func (v *sender) OnTick(now time.Duration) {
	if v.warmup {
		v.warmup = false
		rate := v.mi.rate
		v.mi = miStats{rate: rate, start: now}
		return
	}
	v.finishMI(now)
	// Randomized MI length in [1.7, 2.2]·srtt avoids probe synchronization
	// between competing flows (the randomness PCC relies on).
	srtt := time.Duration(v.srtt.Get(float64(50 * time.Millisecond)))
	f := 1.7 + 0.5*v.cfg.rng.Float64()
	v.miLen = time.Duration(f * float64(srtt))
	if v.miLen < 10*time.Millisecond {
		v.miLen = 10 * time.Millisecond
	}
}

func (v *sender) finishMI(now time.Duration) {
	mi := v.mi
	mi.completed = true
	mi.gradient = regressionSlope(mi.rttT, mi.rttV)
	mi.utility = v.utility(mi)

	switch v.ph {
	case phSlowStart:
		if !v.havePrev || mi.utility > v.prevUtil {
			v.havePrev = true
			v.prevUtil = mi.utility
			v.rate *= 2
			v.startMI(now, v.rate)
			return
		}
		// Utility dropped: fall back to probing from the previous rate.
		v.rate /= 2
		v.ph = phProbeFirst
		v.beginProbePair(now)
	case phProbeFirst:
		v.first = mi
		v.ph = phProbeSecond
		dir := -1.0
		if !v.upFirst {
			dir = 1.0
		}
		v.startMI(now, v.rate*(1+dir*DefaultEpsilon))
	case phProbeSecond:
		var uUp, uDown float64
		if v.upFirst {
			uUp, uDown = v.first.utility, mi.utility
		} else {
			uUp, uDown = mi.utility, v.first.utility
		}
		v.step(uUp, uDown)
		v.ph = phProbeFirst
		v.beginProbePair(now)
	}
}

func (v *sender) beginProbePair(now time.Duration) {
	v.upFirst = v.cfg.rng.Intn(2) == 0
	dir := 1.0
	if !v.upFirst {
		dir = -1.0
	}
	v.startMI(now, v.rate*(1+dir*DefaultEpsilon))
}

// step performs the gradient-ascent update with confidence amplification
// and the dynamic change boundary of the Vivace paper.
func (v *sender) step(uUp, uDown float64) {
	grad := (uUp - uDown) / (2 * DefaultEpsilon * v.rate)
	dir := 1
	if grad < 0 {
		dir = -1
	}
	if dir == v.lastDir {
		v.conf++
	} else {
		v.conf = 1
		v.lastDir = dir
	}
	theta := 1.0 // conversion factor: utility-gradient to Mbit/s
	delta := float64(v.conf) * theta * grad
	// Dynamic change boundary: at most (0.05 + 0.1·(conf−1)) of the rate.
	bound := (0.05 + 0.1*float64(v.conf-1)) * v.rate
	if delta > bound {
		delta = bound
	}
	if delta < -bound {
		delta = -bound
	}
	v.rate += delta
	if v.rate < minRate {
		v.rate = minRate
	}
}

func (v *sender) startMI(now time.Duration, rate float64) {
	if rate < minRate {
		rate = minRate
	}
	v.mi = miStats{rate: rate, start: now}
	v.warmup = true
}

// utility scores one MI with the Vivace latency utility.
func (v *sender) utility(mi miStats) float64 {
	dur := v.miLen.Seconds()
	if dur <= 0 {
		dur = 0.05
	}
	x := float64(mi.ackedB) * 8 / dur / 1e6 // achieved Mbit/s
	// Loss per MI via sequence-gap accounting (sent vs delivered), as the
	// PCC monitor measures it.
	loss := 0.0
	if mi.sentB > 0 && mi.sentB > mi.ackedB {
		loss = float64(mi.sentB-mi.ackedB) / float64(mi.sentB)
	}
	grad := mi.gradient
	if grad < 0 {
		grad = 0
	}
	return math.Pow(x, exponent) -
		latencyCoeff*x*grad -
		lossCoeff*x*loss
}

// OnAck implements cca.Algorithm.
func (v *sender) OnAck(s cca.AckSignal) {
	if s.RTT > 0 {
		v.srtt.Update(float64(s.RTT))
		// The latency gradient regresses RTT against packet *send* time
		// (Vivace timestamps at transmission). The distinction matters
		// under ACK aggregation: against arrival time a burst of ACKs
		// collapses to one x-value and the distortion vanishes, while
		// against send time the burst forms the RTT sawtooth (−1 slope
		// within a burst, +period jumps across boundaries) whose spurious
		// positive segments are what §5.3 exploits.
		v.mi.rttT = append(v.mi.rttT, (s.Now - s.RTT - v.mi.start).Seconds())
		v.mi.rttV = append(v.mi.rttV, s.RTT.Seconds())
	}
	v.mi.ackedB += int64(s.DeliveredBytes)
}

// OnLoss implements cca.Algorithm: loss is already accounted for by the
// per-MI send/deliver difference.
func (v *sender) OnLoss(cca.LossSignal) {}

// OnSend implements cca.SendObserver.
func (v *sender) OnSend(s cca.SendSignal) {
	v.mi.sentB += int64(s.Bytes)
}

// regressionSlope returns the least-squares slope of v over t, or 0 when
// fewer than two samples exist (an MI with quantized ACK arrivals may see
// all samples at one instant: slope undefined, returned as 0).
func regressionSlope(t, v []float64) float64 {
	n := float64(len(t))
	if n < 2 {
		return 0
	}
	var st, sv, stt, stv float64
	for i := range t {
		st += t[i]
		sv += v[i]
		stt += t[i] * t[i]
		stv += t[i] * v[i]
	}
	den := n*stt - st*st
	if den == 0 {
		return 0
	}
	return (n*stv - st*sv) / den
}
