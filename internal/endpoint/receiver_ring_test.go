package endpoint

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"starvation/internal/packet"
	"starvation/internal/sim"
)

// The reassembly oracle drives the bitmap-ring Receiver and the map-based
// oracleReceiver through the same packets, each on its own simulator,
// decoded from a byte stream so that seeded tests, scripted cases and
// FuzzReceiverReassembly share one interpreter. After every operation the
// ACKs the two emitted, their counters and pending timers must be equal,
// and the ring must hold exactly the segments the oracle's map holds.

// Opcodes (an operation's first byte, modulo 8); bit 3 of that byte puts
// the ECN mark on the packet the operation delivers and bit 4 the Retx
// flag. One argument byte follows.
const (
	ropNext  = 0 // also 1, 2: the segment at the in-order point (fills the hole when one is open)
	ropAhead = 3 // also 4: a segment ahead of it — arg%16+1 segments, or from arg 240 just past the ring (from 252: past twice the ring)
	ropDup   = 5 // a segment delivered ahead earlier in the run: buffered still, or below the in-order point by now
	ropBelow = 6 // the segment arg%8+1 below the in-order point
	ropRare  = 7 // arg < 8: Reset, the next run's segments 1+211·arg bytes; else the clock moves advanceSteps[arg%8]
)

// maxTestRing is the size from which the interpreter grows the ring no
// further.
const maxTestRing = 1 << 13

const recvFlow = 7

type recvPair struct {
	t   testing.TB
	cfg AckConfig

	simN, simO   *sim.Simulator
	rn           *Receiver
	ro           *oracleReceiver
	acksN, acksO []packet.Ack // emitted since the last comparison

	seg   int           // segment size of the packets this run delivers
	ahead []int64       // seqs delivered ahead of the in-order point this run
	stamp time.Duration // SentAt of the next packet
	op    int
}

func newRecvPair(t testing.TB, cfg AckConfig, seg int) *recvPair {
	p := &recvPair{t: t, cfg: cfg, seg: seg, simN: sim.New(1), simO: sim.New(1)}
	p.rn = NewReceiver(p.simN, recvFlow, cfg, func(a packet.Ack) { p.acksN = append(p.acksN, a) })
	p.ro = newOracleReceiver(p.simO, recvFlow, cfg, func(a packet.Ack) { p.acksO = append(p.acksO, a) })
	p.agree()
	return p
}

// deliver hands both receivers the segment k segments from the in-order
// point (negative: below it), flagged per the operation byte.
func (p *recvPair) deliver(k int64, op byte) {
	p.t.Helper()
	p.deliverSeq(p.ro.expected+k*int64(p.seg), op)
}

func (p *recvPair) deliverSeq(seq int64, op byte) {
	p.t.Helper()
	if seq > p.ro.expected {
		p.ahead = append(p.ahead, seq)
	}
	p.stamp++
	pk := packet.Packet{Flow: recvFlow, Seq: seq, Size: p.seg, SentAt: p.stamp,
		ECN: op&8 != 0, Retx: op&16 != 0}
	p.rn.OnPacket(pk)
	p.ro.OnPacket(pk)
	p.agree()
}

func (p *recvPair) next()         { p.t.Helper(); p.deliver(0, 0) }
func (p *recvPair) jump(k int64)  { p.t.Helper(); p.deliver(k, 0) }
func (p *recvPair) buffered() int { return len(p.ro.ooo) }

// advance runs both simulators d further, firing the delayed-ACK and
// aggregation timers.
func (p *recvPair) advance(d time.Duration) {
	p.t.Helper()
	until := p.simN.Now() + d
	p.simN.Run(until)
	p.simO.Run(until)
	p.agree()
}

// reset puts both receivers and their simulators through the Reset a
// recycled session gives them; the next run's segments are seg bytes.
func (p *recvPair) reset(seg int) {
	p.t.Helper()
	words := len(p.rn.ooo)
	p.simN.Reset(1)
	p.simO.Reset(1)
	p.rn.Reset(p.cfg)
	p.ro.Reset(p.cfg)
	p.acksN, p.acksO = p.acksN[:0], p.acksO[:0]
	p.seg, p.ahead, p.stamp = seg, p.ahead[:0], 0
	if len(p.rn.ooo) != words || p.rn.seg != 0 {
		p.t.Fatalf("op %d: Reset left a ring of %d words (was %d) and segment size %d", p.op, len(p.rn.ooo), words, p.rn.seg)
	}
	p.agree()
}

// agree compares everything observable, then the ring against the map.
func (p *recvPair) agree() {
	p.t.Helper()
	p.op++
	rn, ro := p.rn, p.ro
	if !slices.Equal(p.acksN, p.acksO) {
		p.t.Fatalf("op %d: ACKs\n got %+v\nwant %+v", p.op, p.acksN, p.acksO)
	}
	p.acksN, p.acksO = p.acksN[:0], p.acksO[:0]
	if rn.expected != ro.expected || rn.DeliveredBytes() != ro.DeliveredBytes() ||
		rn.Received != ro.Received || rn.AcksSent != ro.AcksSent ||
		rn.flushTimer.Armed() != ro.flushArmed || len(rn.pendAcks) != len(ro.pendAcks) {
		p.t.Fatalf("op %d: expected %d delivered %d received %d acks %d timer %v held %d;"+
			" oracle %d, %d, %d, %d, %v, %d", p.op,
			rn.expected, rn.DeliveredBytes(), rn.Received, rn.AcksSent, rn.flushTimer.Armed(), len(rn.pendAcks),
			ro.expected, ro.DeliveredBytes(), ro.Received, ro.AcksSent, ro.flushArmed, len(ro.pendAcks))
	}
	n := int64(len(rn.ooo)) << 6
	if n < minRing || n&(n-1) != 0 {
		p.t.Fatalf("op %d: ring of %d bits", p.op, n)
	}
	if rn.seg != 0 && (rn.seg != p.seg || rn.head*int64(rn.seg) != rn.expected) {
		p.t.Fatalf("op %d: segment size %d (packets are %d), head %d against expected %d",
			p.op, rn.seg, p.seg, rn.head, rn.expected)
	}
	set := 0
	for wi, w := range rn.ooo {
		set += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			s := int64(wi<<6 + bits.TrailingZeros64(w))
			i := rn.head + (s-rn.head)&(n-1)
			if size, ok := ro.ooo[i*int64(p.seg)]; !ok || size != p.seg || i == rn.head {
				p.t.Fatalf("op %d: bit %d set, segment %d (head %d): the oracle holds %v", p.op, s, i, rn.head, ro.ooo)
			}
		}
	}
	if set != len(ro.ooo) {
		p.t.Fatalf("op %d: %d bits set, the oracle holds %d segments: %v", p.op, set, len(ro.ooo), ro.ooo)
	}
}

// play interprets ops to the end; an operation cut short by the end of the
// stream reads a zero argument.
func (p *recvPair) play(ops []byte) {
	p.t.Helper()
	for len(ops) > 0 {
		op := ops[0]
		var arg byte
		if len(ops) > 1 {
			arg = ops[1]
		}
		ops = ops[min(2, len(ops)):]
		switch op % 8 {
		case ropAhead, ropAhead + 1:
			k := int64(arg%16) + 1
			if n := int64(len(p.rn.ooo)) << 6; arg >= 240 && n < maxTestRing {
				k = n + int64(arg-240)
				if arg >= 252 {
					k += n
				}
			}
			p.deliver(k, op)
		case ropDup:
			if len(p.ahead) > 0 {
				p.deliverSeq(p.ahead[int(arg)*131%len(p.ahead)], op)
			}
		case ropBelow:
			if k := int64(arg%8) + 1; p.rn.head >= k {
				p.deliver(-k, op)
			}
		case ropRare:
			if arg < 8 {
				p.reset(1 + 211*int(arg))
			} else {
				p.advance(advanceSteps[arg%8])
			}
		default:
			p.deliver(0, op)
		}
	}
}

// ackModes are the three acknowledgment policies, each of which emits a
// different function of the reassembly state.
var ackModes = []struct {
	name string
	cfg  AckConfig
}{
	{"per-packet", AckConfig{}},
	{"delayed", AckConfig{DelayCount: 3}},
	{"aggregated", AckConfig{AggregatePeriod: 5 * time.Millisecond}},
}

// TestReceiverMatchesOracle plays seeded random streams under every ACK
// policy, each on a fresh pair so that every stream grows the ring from one
// word. Uniform bytes give three in-order segments to two ahead, so holes
// open and close constantly; one operation in 64 lands just past the ring,
// which by then has moved on from segment 0 and holds earlier far segments
// on both sides of its wrap point; a Reset about every 256 operations starts
// the next run on the grown ring with another segment size.
func TestReceiverMatchesOracle(t *testing.T) {
	for _, m := range ackModes {
		t.Run(m.name, func(t *testing.T) {
			for seed := int64(1); seed <= 24; seed++ {
				ops := make([]byte, 3000)
				rand.New(rand.NewSource(seed)).Read(ops)
				p := newRecvPair(t, m.cfg, 1500)
				p.play(ops)
				// Reset keeps the ring, so its final size is its largest.
				if len(p.rn.ooo)<<6 < maxTestRing {
					t.Errorf("seed %d: the ring only grew to %d words", seed, len(p.rn.ooo))
				}
			}
		})
	}
}

// FuzzReceiverReassembly lets the fuzzer write the packet stream.
func FuzzReceiverReassembly(f *testing.F) {
	f.Add(uint8(0), uint16(1499), []byte{0, 0, 3, 2, 3, 5, 5, 0, 0, 0, 0, 0, 6, 1, 0, 0})
	f.Add(uint8(1), uint16(535), []byte{0, 0, 0, 0, 7, 36, 11, 3, 4, 250, 0, 0, 4, 241, 7, 5, 3, 1, 0, 0})
	f.Add(uint8(2), uint16(0), []byte{3, 40, 3, 255, 7, 34, 0, 0, 5, 1, 3, 240, 7, 0, 4, 9, 0, 0, 7, 39})
	f.Fuzz(func(t *testing.T, mode uint8, seg uint16, ops []byte) {
		p := newRecvPair(t, ackModes[int(mode)%len(ackModes)].cfg, 1+int(seg)%9000)
		p.play(ops[:min(len(ops), 8192)])
	})
}

// TestReceiverRingEdges walks the situations the ring adds to reassembly,
// each against the oracle after every packet.
func TestReceiverRingEdges(t *testing.T) {
	const seg = 1500

	t.Run("growth-with-bits-either-side-of-the-wrap", func(t *testing.T) {
		p := newRecvPair(t, AckConfig{}, seg)
		for i := 0; i < 40; i++ {
			p.next()
		}
		// On the initial 64-bit ring with head 40: segment 50 is bit 50,
		// segments 70 and 103 have wrapped to bits 6 and 39.
		p.jump(10)
		p.jump(30)
		p.jump(63)
		if len(p.rn.ooo) != 1 || p.rn.ooo[0] != 1<<50|1<<6|1<<39 {
			t.Fatalf("ring %x, want one word with bits 6, 39 and 50", p.rn.ooo)
		}
		// A gap of 200 needs 256 bits: two doublings in one step, and every
		// bit moves to its segment's own slot.
		p.jump(200)
		if want := []uint64{1 << 50, 1<<(70-64) | 1<<(103-64), 0, 1 << (240 - 192)}; !slices.Equal(p.rn.ooo, want) {
			t.Fatalf("ring after growth %x, want %x", p.rn.ooo, want)
		}
		for p.rn.head <= 240 {
			p.next()
		}
		if p.buffered() != 0 || p.rn.Received != 40+4+(241-40-4) {
			t.Fatalf("%d segments buffered after %d packets", p.buffered(), p.rn.Received)
		}
	})

	t.Run("hole-fill-drains-across-words-and-the-wrap", func(t *testing.T) {
		p := newRecvPair(t, AckConfig{}, seg)
		for i := 0; i < 200; i++ {
			p.next()
		}
		for k := int64(1); k <= 130; k++ {
			p.jump(k)
		}
		if len(p.rn.ooo) != 4 {
			t.Fatalf("ring of %d words, want 4", len(p.rn.ooo))
		}
		// Segments 201..330 sit on bits 201..255 and 0..74 of the 256.
		var got packet.Ack
		p.rn.out = func(a packet.Ack) { got = a; p.acksN = append(p.acksN, a) }
		p.next()
		if got.CumAck != 331*seg || got.NewlyAcked != 131*seg || p.buffered() != 0 {
			t.Fatalf("ACK %+v with %d still buffered; want CumAck %d NewlyAcked %d", got, p.buffered(), 331*seg, 131*seg)
		}
	})

	t.Run("reset-after-growth", func(t *testing.T) {
		p := newRecvPair(t, AckConfig{DelayCount: 2}, seg)
		p.next()
		p.jump(1000)
		p.jump(3)
		p.jump(64)
		if len(p.rn.ooo) != 16 {
			t.Fatalf("ring of %d words, want 16", len(p.rn.ooo))
		}
		p.reset(536)
		if len(p.rn.ooo) != 16 || slices.ContainsFunc(p.rn.ooo, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("ring after Reset %x, want 16 clear words", p.rn.ooo)
		}
		// The next run is filed in 536-byte segments on the kept ring.
		p.next()
		p.jump(1000)
		p.jump(1)
		p.next()
		if p.rn.seg != 536 || p.rn.expected != 3*536 || p.buffered() != 1 || len(p.rn.ooo) != 16 {
			t.Fatalf("seg %d expected %d buffered %d ring %d words after the second run",
				p.rn.seg, p.rn.expected, p.buffered(), len(p.rn.ooo))
		}
	})

	t.Run("first-packet-out-of-order", func(t *testing.T) {
		for _, m := range ackModes {
			p := newRecvPair(t, m.cfg, seg)
			p.jump(3)
			if p.rn.seg != seg || p.rn.DeliveredBytes() != seg || p.rn.expected != 0 {
				t.Fatalf("%s: seg %d delivered %d expected %d after a first packet three segments ahead",
					m.name, p.rn.seg, p.rn.DeliveredBytes(), p.rn.expected)
			}
			p.next()
			p.next()
			p.next()
			p.advance(time.Second)
			if p.rn.expected != 4*seg || p.buffered() != 0 {
				t.Fatalf("%s: expected %d with %d buffered, want %d and none", m.name, p.rn.expected, p.buffered(), 4*seg)
			}
		}
	})
}

// TestReceiverRejectsForeignSegments pins the receiver's one precondition:
// a packet that is not a whole segment of the run's size — which no Sender
// emits and no netem element produces — is refused with a panic naming the
// flow, the packet and the size expected, never filed under a wrong bit.
func TestReceiverRejectsForeignSegments(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first []packet.Packet
		bad   packet.Packet
	}{
		{"another-size", []packet.Packet{{Seq: 0, Size: 1500}}, packet.Packet{Seq: 1500, Size: 1000}},
		{"another-size-below-expected", []packet.Packet{{Seq: 0, Size: 1500}}, packet.Packet{Seq: 0, Size: 1200}},
		{"unaligned-ahead", []packet.Packet{{Seq: 0, Size: 1500}}, packet.Packet{Seq: 4000, Size: 1500}},
		{"unaligned-below", []packet.Packet{{Seq: 0, Size: 1500}, {Seq: 1500, Size: 1500}}, packet.Packet{Seq: 700, Size: 1500}},
		{"unaligned-first-packet", nil, packet.Packet{Seq: 100, Size: 1500}},
		{"empty-first-packet", nil, packet.Packet{Seq: 0, Size: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReceiver(sim.New(1), recvFlow, AckConfig{}, func(packet.Ack) {})
			for _, pk := range tc.first {
				r.OnPacket(pk)
			}
			before := *r
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{"flow 7", fmt.Sprintf("seq %d", tc.bad.Seq),
					fmt.Sprintf("size %d", tc.bad.Size), fmt.Sprintf("segment of size %d", r.seg)} {
					if !strings.Contains(msg, want) {
						t.Errorf("panic %q does not name %q", msg, want)
					}
				}
				if r.expected != before.expected || r.delivered != before.delivered || r.ooo[0] != 0 {
					t.Errorf("the refused packet left expected %d delivered %d bits %x", r.expected, r.delivered, r.ooo)
				}
			}()
			r.OnPacket(tc.bad)
			t.Fatal("the packet was accepted")
		})
	}

	// The size is a property of the run, not of the receiver: after Reset
	// another is learnt.
	r := NewReceiver(sim.New(1), recvFlow, AckConfig{}, func(packet.Ack) {})
	r.OnPacket(packet.Packet{Seq: 0, Size: 1500})
	r.Reset(AckConfig{})
	r.OnPacket(packet.Packet{Seq: 536, Size: 536})
	r.OnPacket(packet.Packet{Seq: 0, Size: 536})
	if r.expected != 2*536 {
		t.Fatalf("expected %d after two 536-byte segments on a recycled receiver", r.expected)
	}
}

// receiverReorder is the reassembly hot path under steady reordering: one
// receiver, every 4th segment held back 32 segments. It returns one
// operation — the arrival of one packet — which reports the receiver's
// in-order point. The ring never needs more than its first word.
func receiverReorder() func() int64 {
	const seg = DefaultMSS
	r := NewReceiver(sim.New(1), 0, AckConfig{}, func(packet.Ack) {})
	n := int64(0)
	return func() int64 {
		i := n
		n++
		if i%4 == 3 {
			if i < 32 {
				return r.expected // held back, and none of the held is due yet
			}
			i -= 32
		}
		r.OnPacket(packet.Packet{Seq: i * seg, Size: seg})
		return r.expected
	}
}

// TestReceiverReorderBudget holds that path to zero allocations and checks
// the stream was reassembled: after n arrivals the in-order point stands
// just below the oldest segment still held back.
func TestReceiverReorderBudget(t *testing.T) {
	op := receiverReorder()
	for i := 0; i < 64; i++ {
		op() // warm-up: the first held-back segments are out
	}
	var expected int64
	const runs = 20000
	if allocs := testing.AllocsPerRun(runs, func() { expected = op() }); allocs != 0 {
		t.Errorf("%v allocations per packet, want none", allocs)
	}
	// AllocsPerRun makes one warm-up call of its own. Arrival n-1 was the
	// last; the oldest segment still held back is the first i ≡ 3 (mod 4)
	// above n-1-32.
	n := int64(64 + 1 + runs)
	oldest := (n-1-32)/4*4 + 3
	if oldest <= n-1-32 {
		oldest += 4
	}
	if expected != oldest*DefaultMSS {
		t.Errorf("in-order point at segment %d after %d arrivals, want %d", expected/DefaultMSS, n, oldest)
	}
}

func BenchmarkReceiverReorder(b *testing.B) {
	op := receiverReorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
