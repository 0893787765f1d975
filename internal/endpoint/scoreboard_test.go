package endpoint

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/packet"
	"starvation/internal/sim"
	"starvation/internal/units"
)

// recAlg is a CCA whose window and pacing rate the test sets directly and
// which records every signal the sender hands it.
type recAlg struct {
	fixedAlg
	sends []cca.SendSignal
}

func (r *recAlg) OnSend(s cca.SendSignal) { r.sends = append(r.sends, s) }

// boardPair drives the ring-and-bitmap Sender and the map-based
// oracleSender through the same stream of operations, each on its own
// simulator with its own recording CCA, and compares them after every one.
// One real Receiver (on the Sender's simulator) turns the data packets the
// test chooses to deliver — in any order, dropped or duplicated — into the
// ACKs both senders are then fed, again in any order or not at all.
type boardPair struct {
	t   testing.TB
	mss int

	simN, simO *sim.Simulator
	algN, algO *recAlg
	sn         *Sender
	or         *oracleSender
	pktN, pktO []packet.Packet // transmitted since the last check

	recv *Receiver
	data []packet.Packet // transmitted, neither delivered nor dropped yet
	acks []packet.Ack    // emitted by the receiver, neither delivered nor dropped yet
	step int

	// What the stream has reached so far, for the SACK scan's two paths:
	// retransmissions in the pipe on both sides of their grace period at
	// once, a segment retransmitted a second time, an RTO or a ring growth
	// with retransmissions in the pipe.
	seen struct {
		straddle, retxTwice, rtoWithRetx, growWithRetx bool
	}
	retxSent       map[int64]bool // segments retransmitted in this life
	retxInPipe     int            // at the last check
	timeouts, ring int            // at the last check
}

func newBoardPair(t testing.TB, mss, windowSegs int, ackCfg AckConfig) *boardPair {
	p := &boardPair{t: t, mss: mss, simN: sim.New(1), simO: sim.New(1),
		algN: &recAlg{}, algO: &recAlg{}}
	p.setAlg(windowSegs, 0)
	p.sn = NewSender(p.simN, 0, p.algN, mss, p.outN)
	p.or = newOracleSender(p.simO, 0, p.algO, mss, p.outO)
	p.recv = NewReceiver(p.simN, 0, ackCfg, func(a packet.Ack) { p.acks = append(p.acks, a) })
	p.sn.Start()
	p.or.Start()
	p.check()
	return p
}

func (p *boardPair) outN(pk packet.Packet) {
	p.pktN = append(p.pktN, pk)
	p.data = append(p.data, pk)
	if pk.Retx {
		if p.retxSent == nil {
			p.retxSent = map[int64]bool{}
		}
		p.seen.retxTwice = p.seen.retxTwice || p.retxSent[pk.Seq]
		p.retxSent[pk.Seq] = true
	}
}

func (p *boardPair) outO(pk packet.Packet) { p.pktO = append(p.pktO, pk) }

// setAlg takes effect the next time the senders consult their CCA. The
// window is at least one segment (zero would mean unlimited); a window of
// one holds back everything but a lone segment on an empty pipe.
func (p *boardPair) setAlg(windowSegs int, pacing units.Rate) {
	p.algN.window, p.algO.window = windowSegs*p.mss, windowSegs*p.mss
	p.algN.pacing, p.algO.pacing = pacing, pacing
}

// deliver hands data[i] to the receiver; keep leaves it queued, so a later
// delivery of the same packet is a duplicate.
func (p *boardPair) deliver(i int, keep bool) {
	pk := p.data[i]
	if !keep {
		p.data = slices.Delete(p.data, i, i+1)
	}
	p.recv.OnPacket(pk)
	p.check()
}

func (p *boardPair) dropData(i int) { p.data = slices.Delete(p.data, i, i+1) }

// ack feeds acks[i] to both senders.
func (p *boardPair) ack(i int) {
	a := p.acks[i]
	p.acks = slices.Delete(p.acks, i, i+1)
	p.rawAck(a)
}

func (p *boardPair) rawAck(a packet.Ack) {
	p.sn.OnAck(a)
	p.or.OnAck(a)
	p.check()
}

func (p *boardPair) dropAck(i int) { p.acks = slices.Delete(p.acks, i, i+1) }

// advance runs both simulators d further, firing pacing wakeups, RTOs and
// the receiver's delayed-ACK timer.
func (p *boardPair) advance(d time.Duration) {
	until := p.simN.Now() + d
	p.simN.Run(until)
	p.simO.Run(until)
	p.check()
}

// reset puts both senders, their simulators and the receiver through the
// Reset a recycled session gives them, with a new segment size, and
// restarts the flow.
func (p *boardPair) reset(mss, windowSegs int) {
	p.mss = mss
	p.simN.Reset(1)
	p.simO.Reset(1)
	p.algN, p.algO = &recAlg{}, &recAlg{}
	p.setAlg(windowSegs, 0)
	p.sn.Reset(p.algN, mss)
	p.or.Reset(p.algO, mss)
	p.recv.Reset(p.recv.cfg)
	p.data, p.acks = p.data[:0], p.acks[:0]
	p.pktN, p.pktO = p.pktN[:0], p.pktO[:0]
	clear(p.retxSent)
	if slices.ContainsFunc(p.sn.inPipe, func(w uint64) bool { return w != 0 }) {
		p.t.Fatalf("step %d: in-pipe bits survive Reset: %x", p.step, p.sn.inPipe)
	}
	if slices.ContainsFunc(p.sn.retxBits, func(w uint64) bool { return w != 0 }) || len(p.sn.retxAge) != 0 {
		p.t.Fatalf("step %d: retransmission bits %x or %d ages survive Reset", p.step, p.sn.retxBits, len(p.sn.retxAge))
	}
	p.sn.Start()
	p.or.Start()
	p.check()
}

// deliverAll delivers every queued data packet in order, dropping those
// for which lose reports true, then feeds back every resulting ACK in
// order. Packets the senders transmit in response stay queued.
func (p *boardPair) deliverAll(lose func(packet.Packet) bool) {
	for n := len(p.data); n > 0; n-- {
		if lose != nil && lose(p.data[0]) {
			p.dropData(0)
		} else {
			p.deliver(0, false)
		}
	}
	for len(p.acks) > 0 {
		p.ack(0)
	}
}

// boardState is every scalar of sender state the two implementations
// share.
type boardState struct {
	nextSeq, cumAck             int64
	pipe, dupAcks, rtoBackoff   int
	inRecovery                  bool
	recoverPoint, highestSacked int64
	nextSend, srtt, rttvar      time.Duration
	rtoPending, sendPending     bool

	acked, delivered, sent, retxBytes int64
	sentPkts, retxPkts, acksRecv      int64
	lossEvents, timeouts              int64
	lastRTT                           time.Duration
}

// check fails the test unless the two senders have transmitted the same
// packets, given their CCAs the same signals, hold the same state and the
// same scoreboard, and the ring's own invariants hold.
func (p *boardPair) check() {
	p.t.Helper()
	p.step++
	sn, or := p.sn, p.or
	if !slices.Equal(p.pktN, p.pktO) {
		p.t.Fatalf("step %d: transmitted %+v, oracle %+v", p.step, p.pktN, p.pktO)
	}
	if !slices.Equal(p.algN.sends, p.algO.sends) {
		p.t.Fatalf("step %d: OnSend %+v, oracle %+v", p.step, p.algN.sends, p.algO.sends)
	}
	if !slices.Equal(p.algN.losses, p.algO.losses) {
		p.t.Fatalf("step %d: OnLoss %+v, oracle %+v", p.step, p.algN.losses, p.algO.losses)
	}
	if !slices.Equal(p.algN.acks, p.algO.acks) {
		p.t.Fatalf("step %d: OnAck %+v, oracle %+v", p.step, p.algN.acks, p.algO.acks)
	}
	got := boardState{sn.nextSeq, sn.cumAck, sn.pipe, sn.dupAcks, sn.rtoBackoff, sn.inRecovery,
		sn.recoverPoint, sn.highestSacked, sn.nextSend, sn.srtt, sn.rttvar,
		sn.rtoTimer.Armed(), sn.sendTimer.Armed(),
		sn.AckedBytes, sn.DeliveredBytes, sn.SentBytes, sn.RetxBytes, sn.SentPackets, sn.RetxPackets,
		sn.AcksReceived, sn.LossEvents, sn.Timeouts, sn.LastRTT}
	want := boardState{or.nextSeq, or.cumAck, or.pipe, or.dupAcks, or.rtoBackoff, or.inRecovery,
		or.recoverPoint, or.highestSacked, or.nextSend, or.srtt, or.rttvar,
		or.rtoArmed, or.sendArmed,
		or.AckedBytes, or.DeliveredBytes, or.SentBytes, or.RetxBytes, or.SentPackets, or.RetxPackets,
		or.AcksReceived, or.LossEvents, or.Timeouts, or.LastRTT}
	if got != want {
		p.t.Fatalf("step %d: state\n got %+v\nwant %+v", p.step, got, want)
	}
	if !slices.Equal(sn.retxQ[sn.retxHead:], or.retxQ) {
		p.t.Fatalf("step %d: retxQ %v, oracle %v", p.step, sn.retxQ[sn.retxHead:], or.retxQ)
	}
	p.pktN, p.pktO = p.pktN[:0], p.pktO[:0]
	for _, a := range []*recAlg{p.algN, p.algO} {
		a.sends, a.losses, a.acks = a.sends[:0], a.losses[:0], a.acks[:0]
	}
	if sn.retxHead > 0 && sn.retxHead >= len(sn.retxQ) {
		p.t.Fatalf("step %d: empty retxQ not rewound: head %d len %d", p.step, sn.retxHead, len(sn.retxQ))
	}
	live := p.checkRetxAge()

	mss, n := int64(sn.mss), len(sn.ring)
	if n < minRing || n&(n-1) != 0 || len(sn.inPipe)*64 != n {
		p.t.Fatalf("step %d: ring of %d slots with %d bitmap words", p.step, n, len(sn.inPipe))
	}
	if sn.cumAck != sn.head*mss || sn.nextSeq != sn.tail*mss || sn.tail-sn.head > int64(n) {
		p.t.Fatalf("step %d: head %d tail %d against cumAck %d nextSeq %d mss %d ring %d",
			p.step, sn.head, sn.tail, sn.cumAck, sn.nextSeq, mss, n)
	}
	if len(or.segs) != int(sn.tail-sn.head) {
		p.t.Fatalf("step %d: %d segments on the ring, %d in the oracle's map", p.step, sn.tail-sn.head, len(or.segs))
	}
	// Segment by segment the comparison costs O(window), and a stuck hole
	// lets the window run to tens of thousands of segments: past 128 it is
	// made on every 32nd operation. (A wrong flag or bit shows in the
	// packets and signals compared above as soon as it matters.)
	if sn.tail-sn.head > 128 && p.step%32 != 0 {
		return
	}
	bits := make([]uint64, len(sn.inPipe))
	retxInPipe := 0
	for i := sn.head; i < sn.tail; i++ {
		s := int(i) & (n - 1)
		st, o := sn.ring[s], or.segs[i*mss]
		if o == nil || o.size != sn.mss || st.sentAt != o.sentAt || st.retx != o.retx ||
			st.lost != o.lost || st.queued != o.queued || st.sacked != o.sacked {
			p.t.Fatalf("step %d: segment %d is %+v, oracle %+v", p.step, i*mss, st, o)
		}
		if !st.sacked && !st.lost {
			bits[s>>6] |= 1 << (s & 63)
			if st.retx {
				retxInPipe++
			}
		}
		if got := sn.retxBits[s>>6]>>(s&63)&1 == 1; got != st.retx {
			p.t.Fatalf("step %d: segment %d retx bit %v, flag %v", p.step, i*mss, got, st.retx)
		}
	}
	if !slices.Equal(sn.inPipe, bits) {
		p.t.Fatalf("step %d: in-pipe bits %x, segment flags say %x", p.step, sn.inPipe, bits)
	}
	if retxInPipe != live {
		p.t.Fatalf("step %d: %d retransmissions in the pipe, %d live ages", p.step, retxInPipe, live)
	}
}

// checkRetxAge checks the list of retransmission ages and returns how many
// of its entries are live. The list is bounded by twice the ring, in send
// order, and retxInGrace — called here, which only drops stale entries —
// must say exactly whether every live one is inside its grace period.
// It also notes what the stream has reached (p.seen).
func (p *boardPair) checkRetxAge() int {
	p.t.Helper()
	sn := p.sn
	if len(sn.retxAge) > 2*len(sn.ring) || sn.retxAgeHead > len(sn.retxAge) {
		p.t.Fatalf("step %d: %d retransmission ages (head %d) on a %d-slot ring",
			p.step, len(sn.retxAge), sn.retxAgeHead, len(sn.ring))
	}
	now, grace := p.simN.Now(), sn.grace()
	in, past := 0, 0
	for k, e := range sn.retxAge[sn.retxAgeHead:] {
		if k > 0 && e.at < sn.retxAge[sn.retxAgeHead+k-1].at {
			p.t.Fatalf("step %d: retransmission ages out of order: %v", p.step, sn.retxAge[sn.retxAgeHead:])
		}
		switch {
		case !sn.retxLive(e):
		case now-e.at < grace:
			in++
		default:
			past++
		}
	}
	if got := sn.retxInGrace(now, grace); got != (past == 0) {
		p.t.Fatalf("step %d: retxInGrace = %v with %d retransmissions inside their grace and %d past it",
			p.step, got, in, past)
	}
	p.seen.straddle = p.seen.straddle || in > 0 && past > 0
	p.seen.rtoWithRetx = p.seen.rtoWithRetx || int(sn.Timeouts) > p.timeouts && p.retxInPipe > 0
	p.seen.growWithRetx = p.seen.growWithRetx || len(sn.ring) > p.ring && p.retxInPipe > 0
	p.retxInPipe, p.timeouts, p.ring = in+past, int(sn.Timeouts), len(sn.ring)
	return in + past
}

// pick turns an operation's argument byte into an index below n: mostly
// the oldest entry, often one of the next few (mild reordering), sometimes
// anywhere.
func pick(n int, arg byte) int {
	switch {
	case arg < 150:
		return 0
	case arg < 230:
		return int(arg) % min(n, 8)
	default:
		return int(arg) * 131 % n
	}
}

var advanceSteps = [8]time.Duration{50 * time.Microsecond, 200 * time.Microsecond,
	time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond,
	250 * time.Millisecond, time.Second}

// apply performs one operation of a byte-coded stream; winScale stretches
// the windows an operation can set (up to 255*winScale+1 segments).
func (p *boardPair) apply(op, arg byte, winScale int) {
	switch op % 16 {
	case 0, 1, 2, 3, 4:
		if len(p.data) > 0 {
			p.deliver(pick(len(p.data), arg), false)
		}
	case 5:
		if len(p.data) > 0 {
			p.dropData(pick(len(p.data), arg))
		}
	case 6:
		if len(p.data) > 0 {
			p.deliver(pick(len(p.data), arg), true)
		}
	case 7, 8, 9, 10, 11:
		if len(p.acks) > 0 {
			p.ack(pick(len(p.acks), arg))
		}
	case 12:
		if len(p.acks) > 0 {
			p.dropAck(pick(len(p.acks), arg))
		}
	case 13:
		p.advance(advanceSteps[arg%8])
	case 14:
		p.setAlg(1+int(arg)*winScale, p.algN.pacing)
	case 15:
		switch {
		case arg == 255:
			p.reset(1+int(op)*37%3000, 1+int(arg)*winScale)
		case arg%4 == 0:
			p.setAlg(p.algN.window/p.mss, 0)
		default:
			p.setAlg(p.algN.window/p.mss, units.Mbps(float64(arg)))
		}
	}
}

// TestSenderScoreboardMatchesOracle runs seeded random operation streams —
// sends, in-order and reordered deliveries, drops, duplicates, reordered
// and lost ACKs, pacing wakeups, RTOs, window and pacing changes, resets —
// through both senders, comparing after every operation. The profiles skew
// the mix: windows past the initial ring and past the 512-segment scan
// cap, heavy loss that keeps recoveries open across growth, ACK loss that
// forces RTOs and whole-window cumulative ACKs.
func TestSenderScoreboardMatchesOracle(t *testing.T) {
	// Weights per operation code of apply.
	type weights [16]int
	even := weights{6, 6, 6, 6, 6, 3, 1, 6, 6, 6, 6, 6, 2, 4, 1, 1}
	lossy := weights{5, 5, 5, 5, 5, 9, 2, 6, 6, 6, 6, 6, 3, 4, 1, 1}
	ackStarved := weights{6, 6, 6, 6, 6, 2, 1, 3, 3, 3, 3, 3, 12, 6, 1, 1}
	for _, tc := range []struct {
		name     string
		mss      int
		winScale int
		ackCfg   AckConfig
		w        weights
		steps    int
	}{
		{"small-windows", 1500, 1, AckConfig{}, even, 30000},
		{"past-the-scan-cap", 1500, 8, AckConfig{}, lossy, 40000},
		{"lossy-growth", 1200, 3, AckConfig{}, lossy, 40000},
		{"ack-starved-rto", 1500, 1, AckConfig{}, ackStarved, 30000},
		{"delayed-acks", 536, 2, AckConfig{DelayCount: 2}, even, 30000},
		{"one-byte-segments", 1, 1, AckConfig{}, lossy, 20000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var table []byte
			for op, n := range tc.w {
				for ; n > 0; n-- {
					table = append(table, byte(op))
				}
			}
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			p := newBoardPair(t, tc.mss, 10, tc.ackCfg)
			grew, rtos := 0, int64(0)
			for i := 0; i < tc.steps; i++ {
				ring := len(p.sn.ring)
				p.apply(table[rng.Intn(len(table))], byte(rng.Intn(256)), tc.winScale)
				if len(p.sn.ring) > ring {
					grew++
				}
				rtos = max(rtos, p.sn.Timeouts)
			}
			t.Logf("%d checks, ring grew %d times to %d slots, %d RTOs in the last life, %d retransmits; reached %+v",
				p.step, grew, len(p.sn.ring), rtos, p.sn.RetxPackets, p.seen)
		})
	}
}

// TestSenderScoreboardGraceScan walks the situations the SACK scan's two
// paths must agree on: while the oldest retransmission in the pipe is
// inside its grace period the scan passes over every retransmission by its
// bit, otherwise it reads each one's send time. Segment 2 is lost on every
// send, so its retransmission stays in the pipe until the scan or an RTO
// puts it lost again; every check compares against the oracle and asks
// retxInGrace for the exact answer.
func TestSenderScoreboardGraceScan(t *testing.T) {
	const mss = 1500
	seg2 := func(pk packet.Packet) bool { return pk.Seq == 2*mss }
	// start sends a window, lets 20 ms pass so the ACKs carry RTT samples,
	// and delivers all but segment 2: the scan puts it lost and it is
	// retransmitted into the pipe.
	start := func(t *testing.T, window int) *boardPair {
		p := newBoardPair(t, mss, window, AckConfig{})
		p.advance(20 * time.Millisecond)
		p.deliverAll(seg2)
		if p.retxInPipe != 1 {
			t.Fatalf("%d retransmissions in the pipe, want segment 2's", p.retxInPipe)
		}
		return p
	}

	t.Run("straddling-grace-then-retransmitted-twice", func(t *testing.T) {
		p := start(t, 40)
		// A second hole 40 ms later, then 40 ms more: segment 2's
		// retransmission is past its grace, segment 50's inside it.
		p.advance(40 * time.Millisecond)
		p.deliverAll(func(pk packet.Packet) bool { return seg2(pk) || firstSendOf(mss, 50)(pk) })
		p.advance(40 * time.Millisecond)
		if !p.seen.straddle {
			t.Fatalf("grace %v at %v: no retransmissions on both sides of it", p.sn.grace(), p.simN.Now())
		}
		// The full scan puts segment 2 lost again and passes over 50.
		p.deliverAll(seg2)
		if !p.seen.retxTwice {
			t.Fatal("segment 2 was not retransmitted a second time")
		}
		for i := 0; i < 20 && p.sn.cumAck <= 2*mss; i++ {
			p.advance(100 * time.Millisecond)
			p.deliverAll(nil)
		}
		if p.sn.cumAck <= 50*mss {
			t.Fatalf("cumAck %d: holes never closed", p.sn.cumAck)
		}
	})

	t.Run("rto-sweep-with-retransmissions-in-the-pipe", func(t *testing.T) {
		p := start(t, 20)
		p.advance(time.Second)
		if !p.seen.rtoWithRetx {
			t.Fatal("no RTO with a retransmission in the pipe")
		}
		// The sweep leaves the pipe empty; the one segment the RTO resends
		// is the one live age.
		if n := len(p.sn.retxAge) - p.sn.retxAgeHead; n != 1 || p.retxInPipe != 1 {
			t.Fatalf("%d ages, %d retransmissions in the pipe after the RTO; want segment 2's alone", n, p.retxInPipe)
		}
		p.deliverAll(nil)
	})

	t.Run("growth-with-retransmissions-in-the-pipe", func(t *testing.T) {
		p := start(t, 60)
		p.setAlg(300, 0)
		for i := 0; i < 5 && len(p.sn.ring) < 256; i++ {
			p.advance(2 * time.Millisecond)
			p.deliverAll(seg2)
		}
		if !p.seen.growWithRetx {
			t.Fatalf("ring %d slots: never grew with a retransmission in the pipe", len(p.sn.ring))
		}
		p.deliverAll(nil)
	})
}

// FuzzSenderScoreboard lets the fuzzer write the operation stream.
func FuzzSenderScoreboard(f *testing.F) {
	f.Add(uint16(1500), uint8(1), false, []byte{0, 0, 7, 0, 0, 0, 7, 0, 13, 6})
	f.Add(uint16(1500), uint8(8), false, []byte{14, 255, 7, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 7, 0, 7, 0, 7, 0, 13, 7})
	f.Add(uint16(536), uint8(2), true, []byte{14, 40, 0, 200, 0, 240, 7, 0, 13, 4, 7, 0, 15, 255, 0, 0, 7, 0})
	f.Add(uint16(0), uint8(3), false, []byte{15, 9, 13, 2, 0, 0, 7, 0, 13, 6, 13, 7, 6, 0, 6, 0, 7, 231})
	f.Fuzz(func(t *testing.T, mss uint16, winScale uint8, delayed bool, ops []byte) {
		var ackCfg AckConfig
		if delayed {
			ackCfg.DelayCount = 2
		}
		p := newBoardPair(t, 1+int(mss)%9000, 10, ackCfg)
		for i := 0; i+1 < len(ops) && i < 4096; i += 2 {
			p.apply(ops[i], ops[i+1], 1+int(winScale)%8)
		}
	})
}

// firstSendOf matches the first transmission of the listed segments (by
// index).
func firstSendOf(mss int, segs ...int) func(packet.Packet) bool {
	return func(pk packet.Packet) bool {
		return !pk.Retx && slices.Contains(segs, int(pk.Seq)/mss)
	}
}

// TestSenderScoreboardRingEdges walks the situations the ring adds to the
// scoreboard, each against the oracle after every operation.
func TestSenderScoreboardRingEdges(t *testing.T) {
	const mss = 1500

	t.Run("window-of-exactly-len-ring", func(t *testing.T) {
		// 64 segments outstanding on the initial 64-slot ring: nextSeq's slot
		// is the one the segment at cumAck lives in.
		p := newBoardPair(t, mss, minRing, AckConfig{})
		if len(p.sn.ring) != minRing || p.sn.tail-p.sn.head != minRing {
			t.Fatalf("ring %d slots, window %d segments; want both %d", len(p.sn.ring), p.sn.tail-p.sn.head, minRing)
		}
		if s := p.sn.slotOf(p.sn.nextSeq); s != -1 {
			t.Fatalf("slotOf(nextSeq) = %d: aliases the live slot of cumAck", s)
		}
		// The next new segment has to grow the ring, not overwrite slot 0.
		p.setAlg(minRing+6, 0)
		p.deliver(5, false)
		p.ack(0)
		if len(p.sn.ring) != 2*minRing || p.sn.tail-p.sn.head <= minRing {
			t.Fatalf("ring %d slots for %d segments after sending past a full ring", len(p.sn.ring), p.sn.tail-p.sn.head)
		}
		p.deliverAll(nil)

		// An echo of the unsent nextSeq on a full ring must not SACK the
		// segment at cumAck.
		p = newBoardPair(t, mss, minRing, AckConfig{})
		p.rawAck(packet.Ack{CumAck: 0, SackSeq: p.sn.nextSeq, Count: 1})
		if p.sn.ring[0].sacked {
			t.Fatal("a SACK for nextSeq marked the segment at cumAck")
		}
	})

	t.Run("growth-in-mid-recovery", func(t *testing.T) {
		p := newBoardPair(t, mss, 30, AckConfig{})
		p.advance(time.Millisecond)
		// Lose three segments and every retransmission: the recovery stays
		// open with lost, sacked and in-pipe slots interleaved.
		holes := firstSendOf(mss, 0, 10, 25)
		lose := func(pk packet.Packet) bool { return pk.Retx || holes(pk) }
		p.deliverAll(lose)
		if !p.sn.inRecovery || len(p.sn.ring) != minRing {
			t.Fatalf("inRecovery %v, ring %d: want an open recovery on the initial ring", p.sn.inRecovery, len(p.sn.ring))
		}
		p.setAlg(300, 0)
		for i := 0; i < 6 && len(p.sn.ring) < 256; i++ {
			p.advance(2 * time.Millisecond)
			p.deliverAll(lose)
		}
		if len(p.sn.ring) < 256 || p.sn.cumAck != 0 || !p.sn.inRecovery {
			t.Fatalf("ring %d slots, cumAck %d, inRecovery %v: want growth past 256 inside the recovery",
				len(p.sn.ring), p.sn.cumAck, p.sn.inRecovery)
		}
		// Let the retransmissions through: the holes close one RTO at a time.
		for i := 0; i < 40 && p.sn.cumAck <= 25*mss; i++ {
			p.advance(300 * time.Millisecond)
			p.deliverAll(nil)
		}
		if p.sn.cumAck <= 25*mss {
			t.Fatalf("cumAck %d: holes never closed", p.sn.cumAck)
		}
	})

	t.Run("wrap-across-a-word-boundary", func(t *testing.T) {
		// A 128-slot ring whose window runs from slot 90 round to slot 61,
		// with holes either side of the wrap (slots 127|0) and inside both
		// bitmap words.
		p := newBoardPair(t, mss, 100, AckConfig{})
		p.advance(time.Millisecond)
		for p.sn.head < 90 {
			p.deliver(0, false)
			p.ack(0)
		}
		if len(p.sn.ring) != 128 || p.sn.head != 90 || p.sn.tail != 190 {
			t.Fatalf("ring %d slots holding [%d, %d); want 128 holding [90, 190)", len(p.sn.ring), p.sn.head, p.sn.tail)
		}
		p.setAlg(1, 0)
		p.advance(time.Millisecond)
		lost := []int{95, 126, 127, 128, 129, 150}
		p.deliverAll(firstSendOf(mss, lost...))
		if n := int(p.sn.RetxPackets) + len(p.sn.retxQ) - p.sn.retxHead; n != len(lost) || p.sn.cumAck != 95*mss {
			t.Fatalf("%d segments retransmitted or queued with cumAck %d; want the %d holes %v found", n, p.sn.cumAck, len(lost), lost)
		}
		p.setAlg(100, 0)
		for i := 0; i < 40 && p.sn.cumAck <= 150*mss; i++ {
			p.deliverAll(nil)
			p.advance(300 * time.Millisecond)
		}
		if p.sn.cumAck <= 150*mss {
			t.Fatalf("cumAck %d: holes never closed", p.sn.cumAck)
		}
	})

	t.Run("scan-cap", func(t *testing.T) {
		// A hole 600 segments above cumAck is out of one ACK's reach while
		// the hole at cumAck stands.
		p := newBoardPair(t, mss, 700, AckConfig{})
		p.advance(time.Millisecond)
		holes := firstSendOf(mss, 0, 600)
		p.deliverAll(func(pk packet.Packet) bool { return pk.Retx || holes(pk) })
		if st := p.sn.ring[600&(len(p.sn.ring)-1)]; st.lost || st.sacked || p.sn.cumAck != 0 {
			t.Fatalf("segment 600 %+v with cumAck %d: want it untouched beyond the %d-segment scan", st, p.sn.cumAck, maxSackScan)
		}
		for i := 0; i < 40 && p.sn.cumAck <= 600*mss; i++ {
			p.advance(300 * time.Millisecond)
			p.deliverAll(nil)
		}
		if p.sn.cumAck <= 600*mss {
			t.Fatalf("cumAck %d: holes never closed", p.sn.cumAck)
		}
	})

	t.Run("reset-after-growth-with-another-mss", func(t *testing.T) {
		p := newBoardPair(t, mss, 300, AckConfig{})
		p.advance(time.Millisecond)
		p.deliverAll(firstSendOf(mss, 3, 200))
		grown := len(p.sn.ring)
		if grown < 512 {
			t.Fatalf("ring %d slots, want growth to 512", grown)
		}
		p.reset(536, 40)
		if len(p.sn.ring) != grown {
			t.Fatalf("Reset resized the ring: %d -> %d slots", grown, len(p.sn.ring))
		}
		for i := 0; i < 5; i++ {
			p.advance(time.Millisecond)
			p.deliverAll(firstSendOf(536, 7*i+1))
		}
		if p.sn.AckedBytes == 0 || p.sn.AckedBytes%536 != 0 {
			t.Fatalf("acked %d bytes after Reset to mss 536", p.sn.AckedBytes)
		}
	})

	t.Run("cumulative-ack-clears-the-ring", func(t *testing.T) {
		p := newBoardPair(t, mss, minRing, AckConfig{})
		p.advance(time.Millisecond)
		for len(p.data) > 0 {
			p.deliver(0, false)
		}
		for len(p.acks) > 1 {
			p.dropAck(0)
		}
		p.ack(0) // the last ACK alone: cumAck jumps the whole full ring
		if p.sn.head != minRing || p.sn.tail != 2*minRing || len(p.sn.ring) != minRing {
			t.Fatalf("head %d tail %d ring %d: want the window refilled in place", p.sn.head, p.sn.tail, len(p.sn.ring))
		}
		p.deliverAll(nil)
	})
}
