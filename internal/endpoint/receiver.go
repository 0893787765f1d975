package endpoint

import (
	"fmt"
	"math/bits"
	"time"

	"starvation/internal/netem"
	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/sim"
)

// AckConfig selects the receiver's acknowledgment policy.
//
// The zero value acknowledges every packet immediately. DelayCount k > 1
// batches up to k packets per ACK (classic delayed ACKs, Fig. 7's source of
// burstiness). AggregatePeriod T > 0 releases ACKs only at integer
// multiples of T (the §5.3 Vivace experiment's ACK quantization).
type AckConfig struct {
	// DelayCount is the number of packets covered by one ACK (<=1 means
	// per-packet ACKs).
	DelayCount int
	// DelayTimeout bounds how long a delayed ACK may be held. Defaults to
	// 40 ms when DelayCount > 1 and no value is given.
	DelayTimeout time.Duration
	// AggregatePeriod releases ACKs only at multiples of this period.
	AggregatePeriod time.Duration
}

// Receiver consumes data packets, maintains cumulative-ACK state, and emits
// ACKs per its policy.
//
// Every packet of a run must be one whole segment of one size: Size equal
// to that of the run's first packet and Seq a multiple of it, which is what
// every Sender emits and every netem element preserves. A packet that is
// not cannot be filed in the reassembly bitmap, and OnPacket panics on it
// (naming flow, seq, size and the expected size) rather than mis-file it.
type Receiver struct {
	sim  *sim.Simulator
	flow packet.FlowID
	cfg  AckConfig
	out  netem.AckHandler

	// Reassembly. seg is the run's segment size, learnt from its first
	// packet (0 until then), and head is expected/seg, stepped alongside it.
	// Segment i, buffered above the in-order point, is bit i&(64·len(ooo)−1)
	// of ooo: the ring's length is a power of two, covers the segments of
	// (head, head+64·len(ooo)) and doubles when one arrives beyond it. The
	// segments all being seg bytes, presence is all there is to record.
	expected  int64
	seg       int
	head      int64
	ooo       []uint64
	delivered int64 // distinct payload bytes accepted, any order

	// Pending (not yet acknowledged to the sender) state.
	pendCount  int
	pendNewly  int
	pendECE    bool
	lastSeq    int64
	lastSentAt time.Duration
	lastRetx   bool
	flushTimer sim.Timer // the delayed-ACK or aggregation release
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

	// Probe receives an EvDeliver per arriving segment. Set it before the
	// run; nil (the default) disables emission.
	Probe obs.Probe
}

// NewReceiver creates a receiver that sends ACKs to out.
func NewReceiver(s *sim.Simulator, flow packet.FlowID, cfg AckConfig, out netem.AckHandler) *Receiver {
	if cfg.DelayCount > 1 && cfg.DelayTimeout <= 0 {
		cfg.DelayTimeout = 40 * time.Millisecond
	}
	r := &Receiver{sim: s, flow: flow, cfg: cfg, out: out, ooo: make([]uint64, minRing/64)}
	r.flushTimer.Init(s, r.flush)
	return r
}

// Reset returns the receiver to the state NewReceiver(s, flow, cfg, out)
// would produce while keeping the reassembly ring at whatever size earlier
// runs grew it to (its bits are cleared), the ACK buffer's capacity, and the
// flush timer. The segment size is forgotten: the next run may use another.
// The caller resets the shared simulator first, which disarms the timer.
// The probe is cleared; reinstall it before the run.
func (r *Receiver) Reset(cfg AckConfig) {
	if cfg.DelayCount > 1 && cfg.DelayTimeout <= 0 {
		cfg.DelayTimeout = 40 * time.Millisecond
	}
	r.cfg = cfg
	r.expected, r.seg, r.head = 0, 0, 0
	clear(r.ooo)
	r.delivered = 0
	r.pendCount, r.pendNewly, r.pendECE = 0, 0, false
	r.lastSeq, r.lastSentAt, r.lastRetx = 0, 0, false
	r.pendAcks = r.pendAcks[:0]
	r.Received, r.AcksSent = 0, 0
	r.Probe = nil
}

// DeliveredBytes returns the count of distinct payload bytes accepted so
// far, in any order (the quantity echoed to rate-based CCAs).
func (r *Receiver) DeliveredBytes() int64 { return r.delivered }

// OnPacket processes an arriving data segment.
func (r *Receiver) OnPacket(p packet.Packet) {
	r.Received++
	now := r.sim.Now()
	if r.Probe != nil {
		r.Probe.Emit(obs.Event{Type: obs.EvDeliver, At: now, Flow: r.flow,
			Seq: p.Seq, Bytes: p.Size, Queue: -1, Retx: p.Retx})
	}
	if r.seg == 0 {
		r.seg = p.Size // the run's first packet fixes the segment size
	}
	seg := int64(r.seg)
	if p.Size != r.seg || seg <= 0 {
		r.reject(p)
	}
	// k is the packet's distance from the in-order point, in segments.
	var k int64
	if d := p.Seq - r.expected; d != 0 {
		if k = d / seg; k*seg != d {
			r.reject(p)
		}
	}
	newly := 0
	switch {
	case k == 0:
		// The arriving segment, then every buffered one it puts in order.
		for {
			r.expected += seg
			r.head++
			newly += r.seg
			w, bit := r.oooBit(r.head)
			if *w&bit == 0 {
				break
			}
			*w &^= bit
		}
		r.delivered += seg
	case k > 0:
		if k >= int64(len(r.ooo))<<6 {
			r.growRing(k)
		}
		if w, bit := r.oooBit(r.head + k); *w&bit == 0 {
			*w |= bit
			r.delivered += seg
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
	case k > 0:
		// Out-of-order data: ACK immediately so the sender sees dup ACKs.
		r.flush()
	case r.cfg.DelayCount > 1:
		if r.pendCount >= r.cfg.DelayCount {
			r.flush()
		} else if !r.flushTimer.Armed() {
			r.flushTimer.Set(now + r.cfg.DelayTimeout)
		}
	default:
		r.flush()
	}
}

// oooBit returns the bitmap word and mask of segment i.
func (r *Receiver) oooBit(i int64) (*uint64, uint64) {
	s := int(i) & (len(r.ooo)<<6 - 1)
	return &r.ooo[s>>6], 1 << (s & 63)
}

// growRing doubles the reassembly ring until it covers the segment k ahead
// of head, and moves every buffered segment's bit to its place in the
// larger ring.
func (r *Receiver) growRing(k int64) {
	old := r.ooo
	n := 2 * len(old)
	for int64(n)<<6 <= k {
		n *= 2
	}
	r.ooo = make([]uint64, n)
	oldMask := int64(len(old))<<6 - 1
	for wi, w := range old {
		for ; w != 0; w &= w - 1 {
			// The bit's slot, taken round from head's, is its segment's
			// distance from head.
			s := int64(wi<<6 + bits.TrailingZeros64(w))
			nw, bit := r.oooBit(r.head + (s-r.head)&oldMask)
			*nw |= bit
		}
	}
}

// reject panics on a packet that is not a whole segment of this run.
func (r *Receiver) reject(p packet.Packet) {
	panic(fmt.Sprintf("endpoint: receiver of flow %d: packet seq %d size %d is not a whole segment of size %d",
		r.flow, p.Seq, p.Size, r.seg))
}

func (r *Receiver) armAggregate(now time.Duration) {
	if r.flushTimer.Armed() {
		return
	}
	period := r.cfg.AggregatePeriod
	rem := now % period
	wait := period - rem
	if rem == 0 {
		wait = 0
	}
	r.flushTimer.Set(now + wait)
}

func (r *Receiver) flush() {
	if len(r.pendAcks) > 0 {
		// Aggregation mode: release the buffered per-packet ACKs as a
		// burst stamped with the release time.
		r.flushTimer.Stop()
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
	r.flushTimer.Stop()
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
