package endpoint

import (
	"time"

	"starvation/internal/cca"
	"starvation/internal/netem"
	"starvation/internal/packet"
	"starvation/internal/sim"
)

type oracleSeg struct {
	size   int
	sentAt time.Duration
	retx   bool
	lost   bool // marked lost, removed from pipe, awaiting retransmit/ack
	queued bool // sitting in the retransmission queue
	sacked bool // known received (its arrival was echoed), above cumAck
}

// oracleSender is the sender as it was when the scoreboard was a
// map[int64]*oracleSeg: the same window, pacing, SACK and RTO logic, line
// for line, without the probe, trace-hook and CCA-tick plumbing that never
// touches the scoreboard. It exists only as the reference the ring-and-
// bitmap Sender is compared against, step by step, in the tests below.
type oracleSender struct {
	sim  *sim.Simulator
	flow packet.FlowID
	mss  int
	alg  cca.Algorithm
	out  netem.PacketHandler

	// Sequence state.
	nextSeq int64
	cumAck  int64
	pipe    int
	segs    map[int64]*oracleSeg
	retxQ   []int64
	// segFree recycles acked oracleSeg records: steady-state transmission
	// allocates one record per distinct in-flight segment, not per packet.
	segFree []*oracleSeg

	// Recovery state.
	dupAcks       int
	inRecovery    bool
	recoverPoint  int64
	highestSacked int64

	// Pacing.
	nextSend  time.Duration
	sendTimer sim.Handle
	sendArmed bool // sendTimer is scheduled and has not fired

	// RTO estimation.
	srtt, rttvar time.Duration
	minRTO       time.Duration
	rtoBackoff   int
	rtoTimer     sim.Handle
	rtoArmed     bool // rtoTimer is scheduled and has neither fired nor been cancelled

	trySendFn func()
	onRTOFn   func()

	started bool
	stopped bool

	// Stats.
	AckedBytes     int64
	DeliveredBytes int64
	SentBytes      int64
	RetxBytes      int64
	SentPackets    int64
	RetxPackets    int64
	AcksReceived   int64
	LossEvents     int64
	Timeouts       int64
	LastRTT        time.Duration
	StartedAt      time.Duration
}

func newOracleSender(s *sim.Simulator, flow packet.FlowID, alg cca.Algorithm, mss int, out netem.PacketHandler) *oracleSender {
	if mss <= 0 {
		mss = DefaultMSS
	}
	sn := &oracleSender{
		sim:    s,
		flow:   flow,
		mss:    mss,
		alg:    alg,
		out:    out,
		segs:   make(map[int64]*oracleSeg),
		minRTO: defaultMinRTO,
	}
	sn.trySendFn = func() { sn.sendArmed = false; sn.trySend() }
	sn.onRTOFn = func() { sn.rtoArmed = false; sn.onRTO() }
	return sn
}

func (sn *oracleSender) Reset(alg cca.Algorithm, mss int) {
	if mss <= 0 {
		mss = DefaultMSS
	}
	sn.mss = mss
	sn.alg = alg
	sn.nextSeq, sn.cumAck = 0, 0
	sn.pipe = 0
	for seq, st := range sn.segs {
		delete(sn.segs, seq)
		sn.segFree = append(sn.segFree, st)
	}
	sn.retxQ = sn.retxQ[:0]
	sn.dupAcks = 0
	sn.inRecovery = false
	sn.recoverPoint, sn.highestSacked = 0, 0
	sn.nextSend = 0
	sn.sendTimer, sn.rtoTimer = sim.Handle{}, sim.Handle{}
	sn.sendArmed, sn.rtoArmed = false, false
	sn.srtt, sn.rttvar = 0, 0
	sn.minRTO = defaultMinRTO
	sn.rtoBackoff = 0
	sn.started, sn.stopped = false, false
	sn.AckedBytes, sn.DeliveredBytes, sn.SentBytes, sn.RetxBytes = 0, 0, 0, 0
	sn.SentPackets, sn.RetxPackets, sn.AcksReceived = 0, 0, 0
	sn.LossEvents, sn.Timeouts = 0, 0
	sn.LastRTT, sn.StartedAt = 0, 0
}

func (sn *oracleSender) Start() {
	if sn.started {
		return
	}
	sn.started = true
	sn.StartedAt = sn.sim.Now()
	sn.trySend()
}

// trySend transmits as many segments as the window and pacing allow, and
// schedules a wakeup when pacing is the binding constraint.
func (sn *oracleSender) trySend() {
	if !sn.started || sn.stopped {
		return
	}
	now := sn.sim.Now()
	for {
		// Drop stale retransmission entries: the segment may have been
		// cumulatively acked (a retransmitted copy arrived) after it was
		// queued here. Resending it would recreate state below cumAck
		// that no ACK can ever clear.
		for len(sn.retxQ) > 0 {
			seq := sn.retxQ[0]
			st, ok := sn.segs[seq]
			if ok && seq >= sn.cumAck && st.lost {
				break
			}
			if ok {
				st.queued = false
			}
			sn.retxQ = sn.retxQ[1:]
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
			if sn.nextSend < now-pr.Interval(sn.mss) {
				// Don't accumulate unbounded sending credit while idle.
				sn.nextSend = now - pr.Interval(sn.mss)
			}
			sn.nextSend += pr.Interval(sn.mss)
		}
		if haveRetx {
			seq := sn.retxQ[0]
			sn.retxQ = sn.retxQ[1:]
			sn.sendSegment(seq, true)
			continue
		}
		sn.sendSegment(sn.nextSeq, false)
		sn.nextSeq += int64(sn.mss)
	}
}

func (sn *oracleSender) scheduleWake(at time.Duration) {
	if sn.sendArmed {
		return
	}
	sn.sendTimer, sn.sendArmed = sn.sim.At(at, sn.trySendFn), true
}

func (sn *oracleSender) sendSegment(seq int64, retx bool) {
	now := sn.sim.Now()
	st, ok := sn.segs[seq]
	if !ok {
		if n := len(sn.segFree); n > 0 {
			st = sn.segFree[n-1]
			sn.segFree = sn.segFree[:n-1]
			*st = oracleSeg{size: sn.mss}
		} else {
			st = &oracleSeg{size: sn.mss}
		}
		sn.segs[seq] = st
	}
	st.sentAt = now
	st.retx = retx
	st.lost = false
	st.queued = false
	sn.pipe += st.size
	sn.SentBytes += int64(st.size)
	sn.SentPackets++
	if retx {
		sn.RetxBytes += int64(st.size)
		sn.RetxPackets++
	}
	if so, ok := sn.alg.(cca.SendObserver); ok {
		so.OnSend(cca.SendSignal{Now: now, Bytes: st.size, Seq: seq, Retx: retx})
	}
	sn.touchRTO()
	sn.out(packet.Packet{Flow: sn.flow, Seq: seq, Size: st.size, SentAt: now, Retx: retx})
}

func (sn *oracleSender) OnAck(a packet.Ack) {
	if sn.stopped {
		return
	}
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
		if st, ok := sn.segs[a.SackSeq]; ok && !st.sacked {
			st.sacked = true
			if !st.lost {
				sn.pipe -= st.size
			}
		}
		if a.SackSeq > sn.highestSacked {
			sn.highestSacked = a.SackSeq
		}
	}

	newly := 0
	if a.CumAck > sn.cumAck {
		for seq := sn.cumAck; seq < a.CumAck; {
			st, ok := sn.segs[seq]
			if !ok {
				// Should not happen; advance by MSS to stay live.
				seq += int64(sn.mss)
				continue
			}
			if !st.lost && !st.sacked {
				sn.pipe -= st.size
			}
			newly += st.size
			delete(sn.segs, seq)
			sn.segFree = append(sn.segFree, st)
			seq += int64(st.size)
		}
		sn.cumAck = a.CumAck
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
			sn.rtoTimer.Cancel()
			sn.rtoArmed = false
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
	sn.trySend()
}

// detectSackLosses applies the RFC 6675 rule: an unsacked segment with at
// least dupThresh segments sacked above it is lost. This lets a window with
// many holes recover in one round trip instead of NewReno's one hole per
// RTT. Recently retransmitted segments get a round trip of grace before
// they can be re-marked.
func (sn *oracleSender) detectSackLosses(now time.Duration) {
	if sn.highestSacked <= sn.cumAck {
		return
	}
	limit := sn.highestSacked - int64(dupThresh*sn.mss)
	scanned := 0
	for seq := sn.cumAck; seq <= limit && scanned < 512; seq += int64(sn.mss) {
		scanned++
		st, ok := sn.segs[seq]
		if !ok || st.sacked || st.lost {
			continue
		}
		if st.retx && now-st.sentAt < sn.srtt+sn.rttvar*4+time.Millisecond {
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
		sn.markLost(seq, newEvent, now)
	}
}

// markLost marks the segment at seq lost, queues its retransmission, and
// informs the CCA. newEvent tags the start of a recovery epoch. Segments
// already marked lost (e.g. by an RTO sweep) are still queued if they are
// not already awaiting retransmission — partial ACKs walk holes this way.
func (sn *oracleSender) markLost(seq int64, newEvent bool, now time.Duration) {
	st, ok := sn.segs[seq]
	if !ok {
		return
	}
	freshLoss := !st.lost
	if freshLoss {
		st.lost = true
		sn.pipe -= st.size
	}
	if !st.queued {
		st.queued = true
		sn.retxQ = append(sn.retxQ, seq)
	}
	if freshLoss {
		sn.alg.OnLoss(cca.LossSignal{
			Now:      now,
			Bytes:    st.size,
			NewEvent: newEvent,
			InFlight: sn.pipe,
		})
	}
}

func (sn *oracleSender) updateRTO(rtt time.Duration) {
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

func (sn *oracleSender) rto() time.Duration {
	r := sn.srtt + 4*sn.rttvar
	if r < sn.minRTO {
		r = sn.minRTO
	}
	for i := 0; i < sn.rtoBackoff && r < 30*time.Second; i++ {
		r *= 2
	}
	return r
}

func (sn *oracleSender) armRTO() {
	sn.rtoTimer.Cancel()
	sn.rtoTimer, sn.rtoArmed = sn.sim.After(sn.rto(), sn.onRTOFn), true
}

// touchRTO arms the timer only if none is pending, so a continuous stream
// of transmissions cannot indefinitely postpone the timeout of the oldest
// unacknowledged segment.
func (sn *oracleSender) touchRTO() {
	if !sn.rtoArmed {
		sn.armRTO()
	}
}

func (sn *oracleSender) onRTO() {
	if sn.stopped || sn.pipe == 0 && len(sn.retxQ) == 0 {
		return
	}
	now := sn.sim.Now()
	sn.Timeouts++
	sn.rtoBackoff++
	sn.dupAcks = 0
	for _, seq := range sn.retxQ {
		if st, ok := sn.segs[seq]; ok {
			st.queued = false
		}
	}
	sn.retxQ = sn.retxQ[:0]
	sn.inRecovery = false // enterRecoveryTimeout re-establishes it
	sn.enterRecoveryTimeout(now)
	sn.armRTO()
	sn.trySend()
}

func (sn *oracleSender) enterRecoveryTimeout(now time.Duration) {
	sn.inRecovery = true
	sn.recoverPoint = sn.nextSeq
	sn.LossEvents++
	// Presume everything outstanding lost for window accounting, but only
	// retransmit the first hole: the receiver usually holds most of the
	// range already, and NewReno partial ACKs will walk the remaining
	// holes. Retransmitting the whole range would flood the path with
	// duplicates the receiver discards — for a rate-based CCA that can
	// choke goodput for seconds.
	for seq := sn.cumAck; seq < sn.nextSeq; seq += int64(sn.mss) {
		st, ok := sn.segs[seq]
		if !ok || st.sacked {
			continue // sacked segments are at the receiver, not lost
		}
		if !st.lost {
			st.lost = true
			sn.pipe -= st.size
		}
	}
	if st, ok := sn.segs[sn.cumAck]; ok && !st.queued {
		st.queued = true
		sn.retxQ = append(sn.retxQ, sn.cumAck)
	}
	sn.alg.OnLoss(cca.LossSignal{
		Now:      now,
		Bytes:    sn.mss,
		NewEvent: true,
		Timeout:  true,
		InFlight: sn.pipe,
	})
}
