// Package endpoint implements the transport endpoints of the emulator: a
// sender that enforces its CCA's window and pacing rate, detects losses via
// duplicate ACKs and a retransmission timeout, and retransmits; and a
// receiver with configurable acknowledgment policies (per-packet, delayed,
// periodic aggregation).
package endpoint

import (
	"math/bits"
	"time"

	"starvation/internal/cca"
	"starvation/internal/netem"
	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/sim"
	"starvation/internal/units"
)

// Reasonable transport constants; all can be overridden per sender.
const (
	DefaultMSS    = 1500
	defaultMinRTO = 200 * time.Millisecond
	dupThresh     = 3
	// maxSackScan caps how many segments above cumAck one ACK's loss
	// detection considers.
	maxSackScan = 512
	// minRing is the scoreboard's initial size: one bitmap word.
	minRing = 64
)

// segState is one scoreboard entry. Every segment is exactly mss bytes, so
// the entry carries no size.
type segState struct {
	sentAt time.Duration
	retx   bool
	lost   bool // marked lost, removed from pipe, awaiting retransmit/ack
	queued bool // sitting in the retransmission queue
	sacked bool // known received (its arrival was echoed), above cumAck
}

// retxSent is one retransmission: the segment's index and when it was sent.
type retxSent struct {
	seg int64
	at  time.Duration
}

// Sender drives one flow: it asks its CCA for the window and pacing rate,
// transmits MSS-sized segments, and reports ACK/loss signals back.
type Sender struct {
	sim  *sim.Simulator
	flow packet.FlowID
	mss  int
	alg  cca.Algorithm
	out  netem.PacketHandler

	// Sequence state. cumAck and nextSeq are multiples of mss and the
	// scoreboard holds exactly the segments of [cumAck, nextSeq). head and
	// tail are cumAck/mss and nextSeq/mss, stepped alongside them so the
	// per-packet path never divides.
	nextSeq    int64
	cumAck     int64
	head, tail int64
	pipe       int
	// Scoreboard: segment seq lives in ring[(seq/mss)&(len(ring)-1)]. The
	// ring's length is a power of two, at least one bitmap word, and doubles
	// when the window fills it. inPipe keeps one bit per slot, set exactly
	// when the slot holds a segment that is neither sacked nor lost — the
	// only segments loss detection ever has to look at.
	ring   []segState
	inPipe []uint64
	// retxBits mirrors each slot's retx flag, so inPipe&retxBits marks the
	// retransmissions in the pipe: the segments loss detection passes over
	// for a grace period after they were sent. retxAge[retxAgeHead:] holds
	// one entry per retransmission sent into the pipe, oldest first, and
	// drops stale entries — whose segment has left the pipe or been sent
	// again — from its front on demand (retxInGrace) and from its whole
	// length when it outgrows the ring (noteRetx).
	retxBits    []uint64
	retxAge     []retxSent
	retxAgeHead int
	// retxQ[retxHead:] is the retransmission queue, oldest first. Popping
	// advances retxHead; both rewind to the array's start when it empties.
	retxQ    []int64
	retxHead int

	// Recovery state.
	dupAcks       int
	inRecovery    bool
	recoverPoint  int64
	highestSacked int64

	// Pacing.
	nextSend  time.Duration
	sendTimer sim.Timer

	// RTO estimation.
	srtt, rttvar time.Duration
	minRTO       time.Duration
	rtoBackoff   int
	rtoTimer     sim.Timer

	// CCA tick driver, and the CCA's optional interfaces: both resolved
	// once per life, in Start.
	tickTimer sim.Timer
	ticker    cca.Ticker
	sendObs   cca.SendObserver
	// tickBound is set once tickTimer is bound to onTick, which waits for
	// the sender's first ticking CCA: most never tick, and binding
	// allocates. A reused sender keeps the binding across Reset.
	tickBound bool

	started bool

	// Stats (exported for metrics).
	AckedBytes     int64
	DeliveredBytes int64
	SentBytes      int64
	RetxBytes      int64
	SentPackets    int64
	RetxPackets    int64
	AcksReceived   int64
	CwndUpdates    int64
	LossEvents     int64
	Timeouts       int64
	LastRTT        time.Duration
	StartedAt      time.Duration
	maxBurst       int
	AckTraceHook   func(now, rtt time.Duration, ackedBytes int)

	// Probe receives EvAckRecv and EvCwndUpdate lifecycle events. Set it
	// before Start; nil (the default) disables emission.
	Probe    obs.Probe
	lastCwnd int
}

// NewSender creates a sender for the given flow. out is the first element
// of the forward path.
func NewSender(s *sim.Simulator, flow packet.FlowID, alg cca.Algorithm, mss int, out netem.PacketHandler) *Sender {
	if mss <= 0 {
		mss = DefaultMSS
	}
	sn := &Sender{
		sim:    s,
		flow:   flow,
		mss:    mss,
		alg:    alg,
		out:    out,
		ring:   make([]segState, minRing),
		minRTO: defaultMinRTO,
	}
	sn.inPipe, sn.retxBits = bitmaps(minRing)
	sn.sendTimer.Init(s, sn.trySend)
	sn.rtoTimer.Init(s, sn.onRTO)
	return sn
}

// Reset returns the sender to the state NewSender(s, flow, alg, mss, out)
// would produce while keeping the warm buffers that dominate per-run setup
// cost: the scoreboard ring at whatever size earlier runs grew it to, the
// retransmission queue's capacity, and the timers. The caller must reset
// the shared simulator first, which disarms the timers. Probe and
// AckTraceHook are cleared like any other per-run wiring; reinstall them
// before Start.
func (sn *Sender) Reset(alg cca.Algorithm, mss int) {
	if mss <= 0 {
		mss = DefaultMSS
	}
	sn.mss = mss
	sn.alg = alg
	sn.nextSeq, sn.cumAck = 0, 0
	sn.head, sn.tail = 0, 0
	sn.pipe = 0
	// An empty window needs no slot cleared (sendSegment initialises the
	// slot it claims), only the bits.
	clear(sn.inPipe)
	clear(sn.retxBits)
	sn.retxAge, sn.retxAgeHead = sn.retxAge[:0], 0
	sn.retxQ, sn.retxHead = sn.retxQ[:0], 0
	sn.dupAcks = 0
	sn.inRecovery = false
	sn.recoverPoint, sn.highestSacked = 0, 0
	sn.nextSend = 0
	sn.srtt, sn.rttvar = 0, 0
	sn.minRTO = defaultMinRTO
	sn.rtoBackoff = 0
	sn.ticker, sn.sendObs = nil, nil
	sn.started = false
	sn.AckedBytes, sn.DeliveredBytes, sn.SentBytes, sn.RetxBytes = 0, 0, 0, 0
	sn.SentPackets, sn.RetxPackets, sn.AcksReceived = 0, 0, 0
	sn.CwndUpdates, sn.LossEvents, sn.Timeouts = 0, 0, 0
	sn.LastRTT, sn.StartedAt = 0, 0
	sn.maxBurst = 0
	sn.AckTraceHook = nil
	sn.Probe = nil
	sn.lastCwnd = 0
}

// Algorithm returns the sender's CCA.
func (sn *Sender) Algorithm() cca.Algorithm { return sn.alg }

// Start begins transmission at the current virtual time.
func (sn *Sender) Start() {
	if sn.started {
		return
	}
	sn.started = true
	sn.StartedAt = sn.sim.Now()
	sn.sendObs, _ = sn.alg.(cca.SendObserver)
	if t, ok := sn.alg.(cca.Ticker); ok {
		if !sn.tickBound {
			sn.tickTimer.Init(sn.sim, sn.onTick)
			sn.tickBound = true
		}
		sn.armTick(t)
	}
	sn.trySend()
}

func (sn *Sender) armTick(t cca.Ticker) {
	// The ticker is assigned unconditionally: a reused sender keeps its
	// tick timer across Reset, but must tick the *current* CCA, not the
	// one from a previous life.
	sn.ticker = t
	iv := t.TickInterval()
	if iv <= 0 {
		iv = 10 * time.Millisecond
	}
	sn.tickTimer.Set(sn.sim.Now() + iv)
}

func (sn *Sender) onTick() {
	sn.ticker.OnTick(sn.sim.Now())
	sn.armTick(sn.ticker)
	sn.trySend()
}

// trySend transmits as many segments as the window and pacing allow, and
// schedules a wakeup when pacing is the binding constraint.
func (sn *Sender) trySend() {
	if !sn.started {
		return
	}
	now := sn.sim.Now()
	for {
		// Drop stale retransmission entries: the segment may have been
		// cumulatively acked (a retransmitted copy arrived) after it was
		// queued here. Resending it would recreate state below cumAck
		// that no ACK can ever clear.
		for len(sn.retxQ) > 0 {
			if s := sn.slotOf(sn.retxQ[sn.retxHead]); s >= 0 {
				if sn.ring[s].lost {
					break
				}
				sn.ring[s].queued = false
			}
			sn.popRetx()
		}
		// Retransmissions have priority but obey the same limits.
		haveRetx := len(sn.retxQ) > 0
		w := sn.alg.Window()
		if w > 0 && sn.pipe+sn.mss > w {
			return // window-limited; an ACK will reopen it
		}
		pr := sn.alg.PacingRate()
		if pr > 0 {
			if now < sn.nextSend {
				sn.scheduleWake(sn.nextSend)
				return
			}
			gap := pr.Interval(sn.mss)
			if sn.nextSend < now-gap {
				// Don't accumulate unbounded sending credit while idle.
				sn.nextSend = now - gap
			}
			sn.nextSend += gap
		}
		if haveRetx {
			sn.sendSegment(sn.popRetx(), true)
			continue
		}
		sn.sendSegment(sn.nextSeq, false)
	}
}

// popRetx removes and returns the oldest queued retransmission.
func (sn *Sender) popRetx() int64 {
	seq := sn.retxQ[sn.retxHead]
	sn.retxHead++
	if sn.retxHead == len(sn.retxQ) {
		sn.retxQ, sn.retxHead = sn.retxQ[:0], 0
	}
	return seq
}

func (sn *Sender) scheduleWake(at time.Duration) {
	if !sn.sendTimer.Armed() {
		sn.sendTimer.Set(at)
	}
}

// slot returns the ring slot of segment index i.
func (sn *Sender) slot(i int64) int { return int(i) & (len(sn.ring) - 1) }

// slotOf returns the ring slot of the segment that starts at seq, or -1
// when no segment of [cumAck, nextSeq) starts there.
func (sn *Sender) slotOf(seq int64) int {
	if seq < sn.cumAck || seq >= sn.nextSeq {
		return -1
	}
	i := seq / int64(sn.mss)
	if i*int64(sn.mss) != seq {
		return -1
	}
	return sn.slot(i)
}

func (sn *Sender) setInPipe(s int)   { sn.inPipe[s>>6] |= 1 << (s & 63) }
func (sn *Sender) clearInPipe(s int) { sn.inPipe[s>>6] &^= 1 << (s & 63) }

// pipeWord returns the in-pipe bits of segment i and the segments after it
// in the same bitmap word — bit k stands for segment i+k — and the index
// of the first segment of the next word, wrapping with the ring. With
// skipRetx the retransmissions' bits are left out. A scan that starts at
// head and follows next meets the in-pipe segments in index order; should
// it come round to the word it started in, the bits it has seen before
// decode to indices of tail or more, after every live one.
func (sn *Sender) pipeWord(i int64, skipRetx bool) (w uint64, next int64) {
	s := sn.slot(i)
	w = sn.inPipe[s>>6]
	if skipRetx {
		w &^= sn.retxBits[s>>6]
	}
	return w >> (s & 63), i + int64(64-s&63)
}

// growRing doubles the scoreboard and moves every live segment to its slot
// in the larger ring, rebuilding the bitmaps from the segments' flags.
func (sn *Sender) growRing() {
	old := sn.ring
	sn.ring = make([]segState, 2*len(old))
	sn.inPipe, sn.retxBits = bitmaps(len(sn.ring))
	for i := sn.head; i < sn.tail; i++ {
		st := old[int(i)&(len(old)-1)]
		s := sn.slot(i)
		sn.ring[s] = st
		if !st.sacked && !st.lost {
			sn.setInPipe(s)
		}
		if st.retx {
			sn.retxBits[s>>6] |= 1 << (s & 63)
		}
	}
}

// bitmaps returns the in-pipe and retransmission bitmaps of an n-slot
// ring, taken from one allocation.
func bitmaps(n int) (inPipe, retxBits []uint64) {
	b := make([]uint64, 2*n/64)
	return b[: n/64 : n/64], b[n/64:]
}

// noteRetx records that segment i was retransmitted into the pipe at now.
// Before the list outgrows twice the ring, it is compacted to its live
// entries, of which there is at most one per slot: each retransmission in
// the pipe is the last send of its segment, and an RTO, which could put a
// segment lost and back in the pipe within one instant, empties the list.
func (sn *Sender) noteRetx(i int64, now time.Duration) {
	if len(sn.retxAge) >= 2*len(sn.ring) {
		live := sn.retxAge[:0]
		for _, e := range sn.retxAge[sn.retxAgeHead:] {
			if sn.retxLive(e) {
				live = append(live, e)
			}
		}
		sn.retxAge, sn.retxAgeHead = live, 0
	}
	sn.retxAge = append(sn.retxAge, retxSent{i, now})
}

// retxLive reports whether e is still the last send of a segment in the
// pipe.
func (sn *Sender) retxLive(e retxSent) bool {
	if e.seg < sn.head || e.seg >= sn.tail {
		return false
	}
	s := sn.slot(e.seg)
	k, bit := s>>6, uint64(1)<<(s&63)
	return sn.inPipe[k]&sn.retxBits[k]&bit != 0 && sn.ring[s].sentAt == e.at
}

// retxInGrace reports whether every retransmission in the pipe was sent
// less than grace before now — vacuously true when there is none. The
// oldest live entry of retxAge decides it, once the stale ones before it
// are dropped.
func (sn *Sender) retxInGrace(now, grace time.Duration) bool {
	for ; sn.retxAgeHead < len(sn.retxAge); sn.retxAgeHead++ {
		if e := sn.retxAge[sn.retxAgeHead]; sn.retxLive(e) {
			return now-e.at < grace
		}
	}
	sn.retxAge, sn.retxAgeHead = sn.retxAge[:0], 0
	return true
}

// sendSegment transmits the segment at seq: a retransmission of a segment
// the scoreboard holds, or a new segment, which always enters at nextSeq.
func (sn *Sender) sendSegment(seq int64, retx bool) {
	now := sn.sim.Now()
	var s int
	if retx {
		s = sn.slotOf(seq)
	} else {
		if sn.tail-sn.head == int64(len(sn.ring)) {
			sn.growRing()
		}
		s = sn.slot(sn.tail)
		sn.ring[s] = segState{}
		sn.nextSeq += int64(sn.mss)
		sn.tail++
	}
	st := &sn.ring[s]
	st.sentAt = now
	st.retx = retx
	st.lost = false
	st.queued = false
	if !st.sacked {
		sn.setInPipe(s)
	}
	if k, bit := s>>6, uint64(1)<<(s&63); !retx {
		sn.retxBits[k] &^= bit
	} else {
		sn.retxBits[k] |= bit
		if !st.sacked {
			sn.noteRetx(seq/int64(sn.mss), now)
		}
	}
	sn.pipe += sn.mss
	sn.SentBytes += int64(sn.mss)
	sn.SentPackets++
	if retx {
		sn.RetxBytes += int64(sn.mss)
		sn.RetxPackets++
	}
	if sn.sendObs != nil {
		sn.sendObs.OnSend(cca.SendSignal{Now: now, Bytes: sn.mss, Seq: seq, Retx: retx})
	}
	sn.touchRTO()
	sn.out(packet.Packet{Flow: sn.flow, Seq: seq, Size: sn.mss, SentAt: now, Retx: retx})
}

// OnAck processes an acknowledgment arriving from the reverse path.
func (sn *Sender) OnAck(a packet.Ack) {
	now := sn.sim.Now()
	sn.AcksReceived++

	var rtt time.Duration
	if !a.EchoRetx {
		// Karn's rule: no samples from retransmitted segments. A zero
		// EchoSentAt is a valid timestamp (flow started at t=0).
		if r := now - a.EchoSentAt; r > 0 {
			rtt = r
			sn.LastRTT = rtt
			sn.updateRTO(rtt)
		}
	}

	delivered := 0
	if a.Delivered > sn.DeliveredBytes {
		delivered = int(a.Delivered - sn.DeliveredBytes)
		sn.DeliveredBytes = a.Delivered
		// Any delivery progress (cumulative or SACKed) proves the path is
		// alive: reset the exponential RTO backoff and re-arm. Without
		// this, a flow whose hole retransmissions keep colliding with a
		// full buffer backs off to tens of seconds while SACKs stream in.
		sn.rtoBackoff = 0
		if sn.pipe > 0 {
			sn.armRTO()
		}
	}

	// SACK bookkeeping: the ACK echoes the arrival of the segment at
	// SackSeq, so the sender knows that segment is held by the receiver
	// even while a hole below it pins the cumulative ACK.
	if a.SackSeq > sn.cumAck {
		if s := sn.slotOf(a.SackSeq); s >= 0 && !sn.ring[s].sacked {
			st := &sn.ring[s]
			st.sacked = true
			if !st.lost {
				sn.pipe -= sn.mss
			}
			sn.clearInPipe(s)
		}
		if a.SackSeq > sn.highestSacked {
			sn.highestSacked = a.SackSeq
		}
	}

	newly := 0
	if a.CumAck > sn.cumAck {
		// The receiver acknowledges whole segments it was sent, so the walk
		// ends exactly at a.CumAck; it stops at nextSeq regardless, which
		// keeps cumAck on a segment boundary of the scoreboard.
		for sn.cumAck < a.CumAck && sn.head < sn.tail {
			s := sn.slot(sn.head)
			if st := &sn.ring[s]; !st.lost && !st.sacked {
				sn.pipe -= sn.mss
			}
			sn.clearInPipe(s)
			newly += sn.mss
			sn.cumAck += int64(sn.mss)
			sn.head++
		}
		sn.AckedBytes += int64(newly)
		sn.dupAcks = 0
		sn.rtoBackoff = 0
		if sn.inRecovery && sn.cumAck >= sn.recoverPoint {
			sn.inRecovery = false
		}
		// Remaining holes are found by SACK-based detection below; the
		// classic NewReno partial-ACK retransmission would spuriously
		// resend in-flight segments when SACK information is available.
		if sn.pipe > 0 {
			sn.armRTO()
		} else {
			sn.rtoTimer.Stop()
		}
	} else if a.SackSeq > sn.cumAck {
		// Duplicate ACK: data above the cumulative point arrived. Loss
		// detection itself is SACK-driven (detectSackLosses): three sacked
		// segments above a hole is exactly the classic triple-dup-ACK
		// condition, so a separate trigger here would double-retransmit.
		sn.dupAcks++
	}

	sn.detectSackLosses(now)

	sn.alg.OnAck(cca.AckSignal{
		Now:            now,
		RTT:            rtt,
		AckedBytes:     newly,
		DeliveredBytes: delivered,
		Packets:        a.Count,
		InFlight:       sn.pipe,
		ECE:            a.ECE,
	})
	if sn.Probe != nil {
		sn.Probe.Emit(obs.Event{Type: obs.EvAckRecv, At: now, Flow: sn.flow,
			Seq: a.CumAck, Bytes: newly, Queue: -1, Retx: a.EchoRetx})
		if rtt > 0 {
			// Valid (Karn-filtered) measurements only, mirroring the RTT
			// trace hook below, so windowed RTT series match the traces.
			sn.Probe.Emit(obs.Event{Type: obs.EvRTTSample, At: now,
				Flow: sn.flow, Seq: int64(rtt), Queue: -1})
		}
		sn.noteCwnd(now)
	}
	if sn.AckTraceHook != nil {
		sn.AckTraceHook(now, rtt, newly)
	}
	sn.trySend()
}

// noteCwnd emits EvCwndUpdate when the CCA's window moved since the last
// probe observation. Called only on the instrumented path (Probe != nil).
func (sn *Sender) noteCwnd(now time.Duration) {
	w := sn.alg.Window()
	if w == sn.lastCwnd {
		return
	}
	sn.lastCwnd = w
	sn.CwndUpdates++
	sn.Probe.Emit(obs.Event{Type: obs.EvCwndUpdate, At: now, Flow: sn.flow,
		Bytes: w, Queue: -1})
}

// detectSackLosses applies the RFC 6675 rule: an unsacked segment with at
// least dupThresh segments sacked above it is lost. This lets a window with
// many holes recover in one round trip instead of NewReno's one hole per
// RTT. Recently retransmitted segments get a round trip of grace before
// they can be re-marked.
func (sn *Sender) detectSackLosses(now time.Duration) {
	if sn.highestSacked <= sn.cumAck {
		return
	}
	limit := sn.highestSacked - int64(dupThresh*sn.mss)
	if limit < sn.cumAck {
		return
	}
	// Only in-pipe segments can be newly lost, so visit those alone, in
	// sequence order, instead of probing every segment up to limit.
	end := min(sn.head+(limit-sn.cumAck)/int64(sn.mss)+1, sn.head+maxSackScan, sn.tail)
	grace := sn.grace()
	// While the oldest retransmission in the pipe is inside its grace, so
	// is every other: the scan leaves them out by their bits, unread.
	skipRetx := sn.retxInGrace(now, grace)
	for i := sn.head; i < end; {
		w, next := sn.pipeWord(i, skipRetx)
		for ; w != 0; w &= w - 1 {
			j := i + int64(bits.TrailingZeros64(w))
			if j >= end {
				return
			}
			s := sn.slot(j)
			if st := &sn.ring[s]; !skipRetx && st.retx && now-st.sentAt < grace {
				// A recently retransmitted segment gets a round trip (with
				// variance margin) before it can be re-declared lost.
				continue
			}
			newEvent := !sn.inRecovery
			if newEvent {
				sn.inRecovery = true
				sn.recoverPoint = sn.nextSeq
				sn.LossEvents++
			}
			sn.markLost(s, j*int64(sn.mss), newEvent, now)
		}
		i = next
	}
}

// grace is how long a retransmission stays exempt from SACK loss
// detection: a round trip with variance margin.
func (sn *Sender) grace() time.Duration { return sn.srtt + sn.rttvar*4 + time.Millisecond }

// markLost marks the segment at seq (ring slot s) lost, queues its
// retransmission, and informs the CCA. newEvent tags the start of a recovery
// epoch. Segments already marked lost (e.g. by an RTO sweep) are still
// queued if they are not already awaiting retransmission — partial ACKs
// walk holes this way.
func (sn *Sender) markLost(s int, seq int64, newEvent bool, now time.Duration) {
	st := &sn.ring[s]
	freshLoss := !st.lost
	if freshLoss {
		st.lost = true
		sn.pipe -= sn.mss
		sn.clearInPipe(s)
	}
	if !st.queued {
		st.queued = true
		sn.retxQ = append(sn.retxQ, seq)
	}
	if freshLoss {
		sn.alg.OnLoss(cca.LossSignal{
			Now:      now,
			Bytes:    sn.mss,
			NewEvent: newEvent,
			InFlight: sn.pipe,
		})
		if sn.Probe != nil {
			sn.noteCwnd(now)
		}
	}
}

func (sn *Sender) updateRTO(rtt time.Duration) {
	if sn.srtt == 0 {
		sn.srtt = rtt
		sn.rttvar = rtt / 2
		return
	}
	d := sn.srtt - rtt
	if d < 0 {
		d = -d
	}
	sn.rttvar = (3*sn.rttvar + d) / 4
	sn.srtt = (7*sn.srtt + rtt) / 8
}

func (sn *Sender) rto() time.Duration {
	r := sn.srtt + 4*sn.rttvar
	if r < sn.minRTO {
		r = sn.minRTO
	}
	for i := 0; i < sn.rtoBackoff && r < 30*time.Second; i++ {
		r *= 2
	}
	return r
}

func (sn *Sender) armRTO() {
	sn.rtoTimer.Set(sn.sim.Now() + sn.rto())
}

// touchRTO arms the timer only if it is not armed, so a continuous stream
// of transmissions cannot indefinitely postpone the timeout of the oldest
// unacknowledged segment.
func (sn *Sender) touchRTO() {
	if !sn.rtoTimer.Armed() {
		sn.armRTO()
	}
}

func (sn *Sender) onRTO() {
	if sn.pipe == 0 && len(sn.retxQ) == 0 {
		return
	}
	now := sn.sim.Now()
	sn.Timeouts++
	sn.rtoBackoff++
	sn.dupAcks = 0
	for _, seq := range sn.retxQ[sn.retxHead:] {
		if s := sn.slotOf(seq); s >= 0 {
			sn.ring[s].queued = false
		}
	}
	sn.retxQ, sn.retxHead = sn.retxQ[:0], 0
	sn.inRecovery = false // enterRecoveryTimeout re-establishes it
	sn.enterRecoveryTimeout(now)
	sn.armRTO()
	sn.trySend()
}

func (sn *Sender) enterRecoveryTimeout(now time.Duration) {
	sn.inRecovery = true
	sn.recoverPoint = sn.nextSeq
	sn.LossEvents++
	// Presume everything outstanding lost for window accounting, but only
	// retransmit the first hole: the receiver usually holds most of the
	// range already, and NewReno partial ACKs will walk the remaining
	// holes. Retransmitting the whole range would flood the path with
	// duplicates the receiver discards — for a rate-based CCA that can
	// choke goodput for seconds.
	// Sacked segments are at the receiver, not lost, and lost ones are
	// counted already: the in-pipe segments are exactly the rest. Each bit
	// is cleared as it is met, so none is met twice.
	for i := sn.head; i < sn.tail; {
		w, next := sn.pipeWord(i, false)
		for ; w != 0; w &= w - 1 {
			s := sn.slot(i + int64(bits.TrailingZeros64(w)))
			sn.ring[s].lost = true
			sn.pipe -= sn.mss
			sn.clearInPipe(s)
		}
		i = next
	}
	// Nothing is left in the pipe, so no retransmission either.
	sn.retxAge, sn.retxAgeHead = sn.retxAge[:0], 0
	if sn.head < sn.tail {
		if st := &sn.ring[sn.slot(sn.head)]; !st.queued {
			st.queued = true
			sn.retxQ = append(sn.retxQ, sn.cumAck)
		}
	}
	sn.alg.OnLoss(cca.LossSignal{
		Now:      now,
		Bytes:    sn.mss,
		NewEvent: true,
		Timeout:  true,
		InFlight: sn.pipe,
	})
	if sn.Probe != nil {
		sn.noteCwnd(now)
	}
}

// Throughput returns the Def. 2 throughput: bytes acknowledged since the
// flow started, divided by elapsed time.
func (sn *Sender) Throughput(now time.Duration) units.Rate {
	el := now - sn.StartedAt
	if el <= 0 {
		return 0
	}
	return units.RateFromBytes(int(sn.DeliveredBytes), el)
}
