package endpoint

import (
	"time"

	"starvation/internal/netem"
	"starvation/internal/packet"
	"starvation/internal/sim"
)

// oracleReceiver is the receiver as it was when out-of-order segments were
// buffered in a map[int64]int (seq -> size): the same cumulative-ACK,
// delayed-ACK and aggregation logic, line for line, without the probe. It
// exists only as the reference the bitmap-ring Receiver is compared
// against, ACK for ACK, in receiver_ring_test.go.
type oracleReceiver struct {
	sim  *sim.Simulator
	flow packet.FlowID
	cfg  AckConfig
	out  netem.AckHandler

	expected  int64
	ooo       map[int64]int // out-of-order segments: seq -> size
	delivered int64         // distinct payload bytes accepted, any order

	// Pending (not yet acknowledged to the sender) state.
	pendCount  int
	pendNewly  int
	pendECE    bool
	lastSeq    int64
	lastSentAt time.Duration
	lastRetx   bool
	flushTimer sim.Handle
	flushArmed bool // flushTimer is scheduled and has neither fired nor been cancelled
	// flushFn is the flush method bound once so arming the delayed-ACK or
	// aggregation timer never allocates a method-value closure.
	flushFn func()
	// pendAcks buffers fully formed per-packet ACKs in aggregation mode:
	// an aggregating element (Wi-Fi, interrupt coalescing) holds the ACK
	// packets themselves and releases them in a burst, it does not merge
	// them. The burst preserves per-packet RTT samples — each with the
	// arrival time of the burst, which is exactly the distortion §5.3
	// exploits against Vivace's latency-gradient estimator.
	pendAcks []packet.Ack

	// Stats.
	Received int64
	AcksSent int64
}

func newOracleReceiver(s *sim.Simulator, flow packet.FlowID, cfg AckConfig, out netem.AckHandler) *oracleReceiver {
	if cfg.DelayCount > 1 && cfg.DelayTimeout <= 0 {
		cfg.DelayTimeout = 40 * time.Millisecond
	}
	r := &oracleReceiver{sim: s, flow: flow, cfg: cfg, out: out, ooo: make(map[int64]int)}
	r.flushFn = func() { r.flushArmed = false; r.flush() }
	return r
}

func (r *oracleReceiver) Reset(cfg AckConfig) {
	if cfg.DelayCount > 1 && cfg.DelayTimeout <= 0 {
		cfg.DelayTimeout = 40 * time.Millisecond
	}
	r.cfg = cfg
	r.expected = 0
	clear(r.ooo)
	r.delivered = 0
	r.pendCount, r.pendNewly, r.pendECE = 0, 0, false
	r.lastSeq, r.lastSentAt, r.lastRetx = 0, 0, false
	r.flushTimer, r.flushArmed = sim.Handle{}, false
	r.pendAcks = r.pendAcks[:0]
	r.Received, r.AcksSent = 0, 0
}

func (r *oracleReceiver) DeliveredBytes() int64 { return r.delivered }

func (r *oracleReceiver) OnPacket(p packet.Packet) {
	r.Received++
	now := r.sim.Now()
	newly := 0
	inOrder := true
	switch {
	case p.Seq == r.expected:
		r.expected = p.Seq + int64(p.Size)
		newly += p.Size
		r.delivered += int64(p.Size)
		// Drain any buffered segments that are now in order.
		for {
			size, ok := r.ooo[r.expected]
			if !ok {
				break
			}
			delete(r.ooo, r.expected)
			newly += size
			r.expected += int64(size)
		}
	case p.Seq > r.expected:
		inOrder = false
		if _, dup := r.ooo[p.Seq]; !dup {
			r.ooo[p.Seq] = p.Size
			r.delivered += int64(p.Size)
		}
	default:
		// Duplicate of already-received data (spurious retransmission);
		// ACK it so the sender's state advances.
	}

	r.pendCount++
	r.pendNewly += newly
	r.pendECE = r.pendECE || p.ECN
	r.lastSeq = p.Seq
	r.lastSentAt = p.SentAt
	r.lastRetx = p.Retx

	if r.cfg.AggregatePeriod > 0 {
		// Aggregation mode: buffer this packet's ACK (out-of-order or not;
		// the aggregating element holds everything) and release the burst
		// at the next period boundary.
		r.pendAcks = append(r.pendAcks, packet.Ack{
			Flow:       r.flow,
			CumAck:     r.expected,
			SackSeq:    p.Seq,
			EchoSentAt: p.SentAt,
			EchoRetx:   p.Retx,
			Count:      1,
			NewlyAcked: newly,
			Delivered:  r.delivered,
			ECE:        p.ECN,
		})
		r.armAggregate(now)
		return
	}

	switch {
	case !inOrder:
		// Out-of-order data: ACK immediately so the sender sees dup ACKs.
		r.flush()
	case r.cfg.DelayCount > 1:
		if r.pendCount >= r.cfg.DelayCount {
			r.flush()
		} else if !r.flushArmed {
			r.flushTimer, r.flushArmed = r.sim.After(r.cfg.DelayTimeout, r.flushFn), true
		}
	default:
		r.flush()
	}
}

func (r *oracleReceiver) armAggregate(now time.Duration) {
	if r.flushArmed {
		return
	}
	period := r.cfg.AggregatePeriod
	rem := now % period
	wait := period - rem
	if rem == 0 {
		wait = 0
	}
	r.flushTimer, r.flushArmed = r.sim.After(wait, r.flushFn), true
}

func (r *oracleReceiver) flush() {
	if len(r.pendAcks) > 0 {
		// Aggregation mode: release the buffered per-packet ACKs as a
		// burst stamped with the release time.
		r.flushTimer.Cancel()
		r.flushArmed = false
		now := r.sim.Now()
		burst := r.pendAcks
		r.pendCount, r.pendNewly, r.pendECE = 0, 0, false
		for _, a := range burst {
			a.RecvdAt = now
			r.AcksSent++
			r.out(a)
		}
		// OnPacket cannot re-enter during the release loop (r.out only
		// schedules), so the buffer can be recycled for the next burst.
		r.pendAcks = burst[:0]
		return
	}
	if r.pendCount == 0 {
		return
	}
	r.flushTimer.Cancel()
	r.flushArmed = false
	a := packet.Ack{
		Flow:       r.flow,
		CumAck:     r.expected,
		SackSeq:    r.lastSeq,
		EchoSentAt: r.lastSentAt,
		EchoRetx:   r.lastRetx,
		RecvdAt:    r.sim.Now(),
		Count:      r.pendCount,
		NewlyAcked: r.pendNewly,
		Delivered:  r.delivered,
		ECE:        r.pendECE,
	}
	r.pendCount, r.pendNewly, r.pendECE = 0, 0, false
	r.AcksSent++
	r.out(a)
}
