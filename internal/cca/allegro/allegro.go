// Package allegro implements PCC Allegro (Dong et al., NSDI 2015), the
// loss-based PCC variant. Each monitor interval is scored with the
// published sigmoid utility
//
//	u(x) = x·(1−L)·Sigmoid_α(L−0.05) − x·L      (α = 100, x in Mbit/s)
//
// so the sender tolerates up to ~5% loss before utility collapses. §5.4
// shows the same starvation structure as BBR: when one of two flows sees a
// small extra congestion signal (random loss here), it is starved, even
// though a single flow with the same loss runs at full rate.
package allegro

import (
	"math"
	"math/rand"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

const (
	// lossThreshold is the sigmoid's center and sigmoidAlpha its
	// steepness.
	lossThreshold = 0.05
	sigmoidAlpha  = 100
	// epsilonMin and epsilonMax bound the probing fraction.
	epsilonMin, epsilonMax = 0.01, 0.05
	// initialRate is the starting rate and minRate the rate's floor, in
	// Mbit/s.
	initialRate = 1
	minRate     = 0.05
)

type state int

const (
	stStarting state = iota
	stDecision
	stAdjusting
)

type mi struct {
	rate   float64
	start  time.Duration
	ackedB int64 // bytes confirmed delivered during the MI
	sentB  int64 // bytes transmitted during the MI
}

// sender is a PCC Allegro sender.
type sender struct {
	mss int
	// rng randomizes probe-order assignments.
	rng  *rand.Rand
	rate float64 // Mbit/s
	srtt cca.EWMA
	// lossAvg smooths the per-MI loss estimate. A raw small-sample
	// binomial estimate swings across the 5% sigmoid cliff even at 2%
	// true loss, which would trap the flow at its rate floor; blending
	// half the history keeps the cliff sharp for persistent loss while
	// halving the noise.
	lossAvg cca.EWMA

	st    state
	cur   mi
	miLen time.Duration

	// Starting state.
	prevUtil float64
	havePrev bool
	// startFails counts consecutive non-improving MIs during Starting.
	// One noisy dip (a couple of unlucky random losses in a small MI) must
	// not end the exponential ramp; two in a row means the link is
	// genuinely saturated.
	startFails int

	// Decision state: 4 trials, two at +ε and two at −ε in random order.
	eps       float64
	trialIdx  int
	trialDirs [4]int
	trialU    [4]float64

	// Adjusting state.
	adjDir   int
	adjSteps int

	// warmup marks the first half of each monitor interval: the rate has
	// just changed and deliveries still reflect the previous rate (the
	// send→deliver pipeline is one RTT deep), so counters collected during
	// it are discarded and only the second half is scored. This mirrors
	// the PCC monitor's wait-for-results behaviour.
	warmup bool
}

// newSender returns an Allegro sender whose probe order draws from rng.
func newSender(mss int, rng *rand.Rand) *sender {
	if rng == nil {
		panic("allegro: rng is nil")
	}
	a := &sender{mss: mss, rng: rng, rate: initialRate, st: stStarting, eps: epsilonMin,
		// The first interval only fills the pipeline; never score it.
		warmup: true}
	a.srtt.Alpha = 0.125
	a.lossAvg.Alpha = 0.3
	a.miLen = 100 * time.Millisecond
	a.cur = mi{rate: a.rate}
	return a
}

func init() {
	cca.Register("allegro", func(mss int, rng *rand.Rand) cca.Algorithm {
		return newSender(mss, rng)
	})
}

// Name implements cca.Algorithm.
func (a *sender) Name() string { return "allegro" }

// Window implements cca.Algorithm: Allegro is purely rate-based.
func (a *sender) Window() int { return 0 }

// PacingRate implements cca.Algorithm.
func (a *sender) PacingRate() units.Rate {
	r := a.cur.rate
	if r < minRate {
		r = minRate
	}
	return units.Mbps(r)
}

// TickInterval implements cca.Ticker.
func (a *sender) TickInterval() time.Duration { return a.miLen }

// OnTick implements cca.Ticker: close the current MI and choose the next
// rate according to the Allegro state machine.
func (a *sender) OnTick(now time.Duration) {
	if a.warmup {
		// The pipeline has refilled at the MI's rate; start measuring.
		a.warmup = false
		rate := a.cur.rate
		a.cur = mi{rate: rate, start: now}
		return
	}
	u := a.score(a.cur)
	switch a.st {
	case stStarting:
		switch {
		case !a.havePrev || u > a.prevUtil:
			a.havePrev = true
			a.prevUtil = u
			a.startFails = 0
			a.rate *= 2
			a.startMI(now, a.rate)
		case a.startFails == 0:
			// One bad interval: re-measure at the same rate before giving
			// up on the ramp.
			a.startFails++
			a.startMI(now, a.rate)
		default:
			a.rate /= 2
			a.enterDecision(now)
		}
	case stDecision:
		a.trialU[a.trialIdx] = u
		a.trialIdx++
		if a.trialIdx < 4 {
			a.startMI(now, a.rate*(1+float64(a.trialDirs[a.trialIdx])*a.eps))
			return
		}
		a.decide(now)
	case stAdjusting:
		if u > a.prevUtil {
			a.prevUtil = u
			a.adjSteps++
			step := float64(a.adjSteps) * a.eps * a.rate * float64(a.adjDir)
			a.rate = maxF(a.rate+step, minRate)
			a.startMI(now, a.rate)
		} else {
			// Utility fell: revert the last move and re-enter decision.
			step := float64(a.adjSteps) * a.eps * a.rate * float64(a.adjDir)
			a.rate = maxF(a.rate-step, minRate)
			a.enterDecision(now)
		}
	}

	// Adapt the MI length: ~1.5 RTT as the Allegro paper specifies, but
	// long enough to carry ≥ 60 packets at the current rate — the sigmoid
	// utility has a cliff at 5% loss, and a short MI's binomial loss noise
	// (σ ≈ √(p/n)) would otherwise trip it spuriously at low rates and
	// trap the flow near its floor.
	srtt := time.Duration(a.srtt.Get(float64(100 * time.Millisecond)))
	a.miLen = time.Duration(1.5 * float64(srtt))
	if r := a.rate; r > 0 {
		pktTime := time.Duration(float64(a.mss) * 8 / (r * 1e6) * float64(time.Second))
		if min := 30 * pktTime; a.miLen < min {
			a.miLen = min
		}
	}
	if a.miLen < 20*time.Millisecond {
		a.miLen = 20 * time.Millisecond
	}
	if a.miLen > time.Second {
		a.miLen = time.Second
	}
}

func (a *sender) enterDecision(now time.Duration) {
	a.st = stDecision
	a.trialIdx = 0
	// Two +ε and two −ε trials in random order.
	dirs := [4]int{1, 1, -1, -1}
	a.rng.Shuffle(4, func(i, j int) { dirs[i], dirs[j] = dirs[j], dirs[i] })
	a.trialDirs = dirs
	a.startMI(now, a.rate*(1+float64(dirs[0])*a.eps))
}

func (a *sender) decide(now time.Duration) {
	var uUp, uDown []float64
	for i, d := range a.trialDirs {
		if d > 0 {
			uUp = append(uUp, a.trialU[i])
		} else {
			uDown = append(uDown, a.trialU[i])
		}
	}
	upWins := uUp[0] > uDown[0] && uUp[0] > uDown[1] &&
		uUp[1] > uDown[0] && uUp[1] > uDown[1]
	downWins := uDown[0] > uUp[0] && uDown[0] > uUp[1] &&
		uDown[1] > uUp[0] && uDown[1] > uUp[1]
	switch {
	case upWins:
		a.startAdjusting(now, 1)
	case downWins:
		a.startAdjusting(now, -1)
	default:
		// Inconclusive: widen the probe and retry.
		a.eps = minF(a.eps+0.01, epsilonMax)
		a.enterDecision(now)
	}
}

func (a *sender) startAdjusting(now time.Duration, dir int) {
	a.st = stAdjusting
	a.adjDir = dir
	a.adjSteps = 1
	a.eps = epsilonMin
	a.rate = maxF(a.rate*(1+float64(dir)*a.eps), minRate)
	a.prevUtil = math.Inf(-1)
	a.startMI(now, a.rate)
}

func (a *sender) startMI(now time.Duration, rate float64) {
	if rate < minRate {
		rate = minRate
	}
	a.cur = mi{rate: rate, start: now}
	a.warmup = true
}

// score evaluates a finished MI: it measures loss the way PCC's monitor
// module does — the fraction of bytes sent during the interval that were
// not confirmed delivered (sequence-gap accounting, not the transport's
// much slower recovery machinery) — smooths it against history, and applies
// the sigmoid utility.
func (a *sender) score(m mi) float64 {
	dur := a.miLen.Seconds()
	if dur <= 0 {
		dur = 0.1
	}
	x := float64(m.ackedB) * 8 / dur / 1e6
	loss := 0.0
	if m.sentB > 0 && m.sentB > m.ackedB {
		loss = float64(m.sentB-m.ackedB) / float64(m.sentB)
	}
	loss = 0.5*loss + 0.5*a.lossAvg.Update(loss)
	return a.utility(x, loss)
}

// utility is Allegro's published sigmoid utility for a measured throughput
// x (Mbit/s) and loss rate.
func (a *sender) utility(x, loss float64) float64 {
	sig := 1 / (1 + math.Exp(sigmoidAlpha*(loss-lossThreshold)))
	return x*(1-loss)*sig - x*loss
}

// OnAck implements cca.Algorithm.
func (a *sender) OnAck(s cca.AckSignal) {
	if s.RTT > 0 {
		a.srtt.Update(float64(s.RTT))
	}
	a.cur.ackedB += int64(s.DeliveredBytes)
}

// OnLoss implements cca.Algorithm: loss is already accounted for by the
// per-MI send/deliver difference.
func (a *sender) OnLoss(cca.LossSignal) {}

// OnSend implements cca.SendObserver.
func (a *sender) OnSend(s cca.SendSignal) {
	a.cur.sentB += int64(s.Bytes)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
