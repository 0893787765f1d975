// Package bbr implements the BBR v1 model the paper analyzes in §5.2:
//
//   - a bottleneck-bandwidth estimate taken as the max delivery rate over
//     the last 10 RTTs,
//   - a pacing rate of pacing_gain × bandwidth_estimate, with the gain
//     cycling through 1.25 (probe), 0.75 (drain), then six 1.0 phases,
//   - a congestion window cap of 2 × bandwidth_estimate × RTprop + α
//     quanta (the "+α" term the paper identifies as the fairness-critical
//     fixed point forcer),
//   - a 10-second RTprop filter refreshed by ProbeRTT episodes.
//
// In pacing-limited mode d ∈ [Rm, 1.25·Rm], so δmax = Rm/4; when ACK
// arrival jitter makes the max filter overestimate the bandwidth, the cwnd
// cap binds (cwnd-limited mode) and the equilibrium becomes
// RTT = 2·Rm + n·α/C — the Vegas-like curve of Fig. 3 whose tiny δ the
// paper exploits to demonstrate starvation.
package bbr

import (
	"math/rand"
	"sort"
	"time"

	"starvation/internal/cca"
	"starvation/internal/units"
)

const (
	// quantaPkts is the additive cwnd term α in packets.
	quantaPkts = 4
	// steadyCwndGain multiplies the estimated BDP for the cwnd cap outside
	// Startup and ProbeRTT.
	steadyCwndGain = 2
	// rtpropWindow is the min-RTT filter window.
	rtpropWindow = 10 * time.Second
	// bwWindowRTTs is the max-bandwidth filter length in RTTs.
	bwWindowRTTs = 10
	// probeRTTDuration is the ProbeRTT dwell time.
	probeRTTDuration = 200 * time.Millisecond
	// initialCwndPkts is the startup window.
	initialCwndPkts = 10
)

// config parameterizes BBR.
type config struct {
	mss int
	// rng drives the randomized ProbeBW phase offset; required.
	rng *rand.Rand
	// rtpropHint, when nonzero, pins the RTprop estimate, and
	// disableProbeRTT turns off ProbeRTT episodes: oracular Rm knowledge
	// for tests.
	rtpropHint      time.Duration
	disableProbeRTT bool
}

type state int

const (
	stStartup state = iota
	stDrain
	stProbeBW
	stProbeRTT
)

// ProbeGain is ProbeBW's highest pacing gain. It bounds the standing
// queue of pacing-limited mode: d ∈ [Rm, ProbeGain·Rm].
const ProbeGain = 1.25

var gainCycle = [...]float64{ProbeGain, 0.75, 1, 1, 1, 1, 1, 1}

const startupGain = 2.885

// sender is a BBR v1 sender model; the registry is its only
// constructor.
type sender struct {
	cfg config

	st         state
	btlBw      cca.WindowedMax // bytes/s
	rtProp     cca.WindowedMin // seconds
	srtt       cca.EWMA
	pacingGain float64
	cwndGain   float64

	// cwnd and rate are window() and pacingRate() as of the last point
	// their inputs moved: newSender, and the end of every OnAck. The sender reads
	// both several times per paced segment; the formulas run once per ACK.
	cwnd int
	rate units.Rate

	// Delivery-rate sampling.
	delivered     int64
	history       []histPoint // (time, delivered) samples; live from histHead on
	histHead      int
	lastAckTime   time.Duration
	lastRTpropRef time.Duration

	// Startup full-pipe detection (evaluated once per round trip).
	fullBwCount int
	fullBw      float64
	fullPipe    bool
	lastBwCheck time.Duration

	// ProbeBW cycling.
	cycleIndex int
	cycleStart time.Duration

	// ProbeRTT. probeRTTFloor is when inflight first fell to the 4-packet
	// floor in this episode (zero until then); probeRTTDone is the
	// earliest exit, probeRTTDuration after that; probeRTTRound is set
	// once a segment sent at or after the floor has been acknowledged.
	probeRTTFloor time.Duration
	probeRTTDone  time.Duration
	probeRTTRound bool
}

type histPoint struct {
	t         time.Duration
	delivered int64
}

// newSender returns a BBR instance.
func newSender(cfg config) *sender {
	if cfg.mss <= 0 {
		cfg.mss = 1500
	}
	if cfg.rng == nil {
		panic("bbr: config.rng is nil")
	}
	b := &sender{
		cfg:        cfg,
		st:         stStartup,
		pacingGain: startupGain,
		cwndGain:   startupGain,
	}
	b.rtProp.Window = rtpropWindow
	b.btlBw.Window = time.Second // retuned as RTT estimates arrive
	b.srtt.Alpha = 0.125
	b.cwnd, b.rate = b.window(), b.pacingRate()
	return b
}

func init() {
	cca.Register("bbr", func(mss int, rng *rand.Rand) cca.Algorithm {
		return newSender(config{mss: mss, rng: rng})
	})
}

// Name implements cca.Algorithm.
func (b *sender) Name() string { return "bbr" }

// rtprop returns the current min-RTT estimate.
func (b *sender) rtprop() time.Duration {
	if b.cfg.rtpropHint > 0 {
		return b.cfg.rtpropHint
	}
	return time.Duration(b.rtProp.Get(0) * float64(time.Second))
}

// Window implements cca.Algorithm: cwnd = gain·BDP + α quanta.
func (b *sender) Window() int { return b.cwnd }

// PacingRate implements cca.Algorithm.
func (b *sender) PacingRate() units.Rate { return b.rate }

// window evaluates cwnd = gain·BDP + α quanta from the filters, the gains
// and the state.
func (b *sender) window() int {
	if b.st == stProbeRTT {
		return 4 * b.cfg.mss
	}
	bw := b.btlBw.Get(0) // bytes/s
	rt := b.rtprop()
	if bw <= 0 || rt <= 0 {
		return initialCwndPkts * b.cfg.mss
	}
	bdp := bw * rt.Seconds()
	w := b.cwndGain*bdp + quantaPkts*float64(b.cfg.mss)
	min := 4 * b.cfg.mss
	if int(w) < min {
		return min
	}
	return int(w)
}

// pacingRate evaluates pacing_gain × bandwidth_estimate.
func (b *sender) pacingRate() units.Rate {
	bw := b.btlBw.Get(0)
	if bw <= 0 {
		return 0 // ACK-clocked bootstrap until the first sample
	}
	return units.Rate(bw * 8 * b.pacingGain)
}

// OnAck implements cca.Algorithm.
func (b *sender) OnAck(s cca.AckSignal) {
	if s.DeliveredBytes > 0 {
		b.delivered += int64(s.DeliveredBytes)
	}
	b.history = append(b.history, histPoint{s.Now, b.delivered})
	b.pruneHistory(s.Now)
	b.lastAckTime = s.Now

	if s.RTT > 0 {
		srtt := time.Duration(b.srtt.Update(float64(s.RTT)))
		b.btlBw.Window = bwWindowRTTs * srtt
		if b.cfg.rtpropHint == 0 {
			prev := b.rtProp.Get(1e18)
			b.rtProp.Update(s.Now, s.RTT.Seconds())
			if s.RTT.Seconds() <= prev {
				b.lastRTpropRef = s.Now
			}
		}
		// Delivery rate over roughly the last RTT. The divisor must be the
		// exact span of the history sample used, not the nominal RTT: the
		// lookup lands up to one inter-ACK gap early, and dividing that
		// longer window's bytes by the shorter RTT overestimates the rate
		// by ~(1 packet)/(BDP) — a bias the max filter latches, which
		// would pace a slow, permanent queue creep on an ideal path.
		dAtSend, tAtSend := b.deliveredAt(s.Now - s.RTT)
		if span := (s.Now - tAtSend).Seconds(); span > 0 {
			rate := float64(b.delivered-dAtSend) / span
			if rate > 0 {
				b.btlBw.Update(s.Now, rate)
			}
		}
	}
	b.advance(s)
	// Everything window() and pacingRate() read — the two filters, the
	// gains, the state — changes above and nowhere else.
	b.cwnd, b.rate = b.window(), b.pacingRate()
}

// OnLoss implements cca.Algorithm. The §5.2 model does not react to loss;
// BBR v1's conservation dynamics are immaterial to the experiments.
func (b *sender) OnLoss(cca.LossSignal) {}

// pruneHistory expires points older than the min-RTT window plus slack by
// advancing histHead, and compacts only once the dead prefix outgrows the
// live part, so an ACK pays amortised O(1) however long the flow has run.
func (b *sender) pruneHistory(now time.Duration) {
	keep := rtpropWindow + 5*time.Second
	for b.histHead < len(b.history) && now-b.history[b.histHead].t > keep {
		b.histHead++
	}
	if live := len(b.history) - b.histHead; b.histHead > live {
		copy(b.history, b.history[b.histHead:])
		b.history = b.history[:live]
		b.histHead = 0
	}
}

// deliveredAt returns the cumulative delivered count at the last history
// point at or before t, along with that point's timestamp.
func (b *sender) deliveredAt(t time.Duration) (int64, time.Duration) {
	live := b.history[b.histHead:]
	if len(live) == 0 {
		return 0, 0
	}
	if t <= live[0].t {
		return live[0].delivered, live[0].t
	}
	i := sort.Search(len(live), func(i int) bool { return live[i].t > t })
	return live[i-1].delivered, live[i-1].t
}

func (b *sender) advance(s cca.AckSignal) {
	now, inflight := s.Now, s.InFlight
	// ProbeRTT entry: the RTprop estimate has gone stale. The same ACK
	// goes on to the ProbeRTT case below, as in Linux's
	// bbr_update_min_rtt.
	if !b.cfg.disableProbeRTT && b.cfg.rtpropHint == 0 &&
		b.st != stProbeRTT && now-b.lastRTpropRef > rtpropWindow {
		b.st = stProbeRTT
		b.probeRTTFloor, b.probeRTTDone, b.probeRTTRound = 0, 0, false
		b.pacingGain = 1
		b.cwndGain = 1
	}

	switch b.st {
	case stStartup:
		b.checkFullPipe(now)
		if b.fullPipe {
			b.st = stDrain
			b.pacingGain = 1 / startupGain
			b.cwndGain = steadyCwndGain
		}
	case stDrain:
		bdp := b.btlBw.Get(0) * b.rtprop().Seconds()
		if float64(inflight) <= bdp {
			b.enterProbeBW(now)
		}
	case stProbeBW:
		rt := b.rtprop()
		if rt <= 0 {
			rt = 10 * time.Millisecond
		}
		if now-b.cycleStart >= rt {
			b.cycleIndex = (b.cycleIndex + 1) % len(gainCycle)
			b.cycleStart = now
			b.pacingGain = gainCycle[b.cycleIndex]
		}
	case stProbeRTT:
		// Linux BBRv1's exit: first drain to the 4-packet floor, then hold
		// it for max(probeRTTDuration, one packet-timed round). Leaving a
		// fixed time after entry, whatever inflight is, lets a flow whose
		// own packets still queue re-arm RTprop on a queue-inflated sample.
		if b.probeRTTFloor == 0 {
			if inflight <= 4*b.cfg.mss {
				b.probeRTTFloor = now
				b.probeRTTDone = now + probeRTTDuration
			}
			return
		}
		// A round has passed once an ACK echoes a segment sent at or after
		// the floor (Karn-filtered echoes carry no send time).
		if s.RTT > 0 && now-s.RTT >= b.probeRTTFloor {
			b.probeRTTRound = true
		}
		if b.probeRTTRound && now >= b.probeRTTDone {
			b.lastRTpropRef = now
			if b.fullPipe {
				b.enterProbeBW(now)
			} else {
				b.st = stStartup
				b.pacingGain = startupGain
				b.cwndGain = startupGain
			}
		}
	}
}

func (b *sender) enterProbeBW(now time.Duration) {
	b.st = stProbeBW
	b.cwndGain = steadyCwndGain
	// Random initial phase (excluding the drain phase), so competing
	// flows probe at different times — BBR's fairness mechanism.
	idx := b.cfg.rng.Intn(len(gainCycle) - 1)
	if idx >= 1 {
		idx++
	}
	b.cycleIndex = idx % len(gainCycle)
	b.cycleStart = now
	b.pacingGain = gainCycle[b.cycleIndex]
}

func (b *sender) checkFullPipe(now time.Duration) {
	bw := b.btlBw.Get(0)
	if bw <= 0 {
		return
	}
	srtt := time.Duration(b.srtt.Get(0))
	if srtt <= 0 || now-b.lastBwCheck < srtt {
		return
	}
	b.lastBwCheck = now
	if bw >= b.fullBw*1.25 {
		b.fullBw = bw
		b.fullBwCount = 0
		return
	}
	b.fullBwCount++
	if b.fullBwCount >= 3 {
		b.fullPipe = true
	}
}
