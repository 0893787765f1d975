package netem

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"starvation/internal/packet"
	"starvation/internal/sim"
	"starvation/internal/units"
)

// refLink is the bottleneck as it was before its queue became a sim.Lane:
// one departure event per queued packet, each cancelled and rescheduled by
// SetRate, packets held while down scheduled when the link comes back up.
// It keeps only what departure timing depends on, and is the reference
// FuzzLinkDepartures holds Link to.
type refLink struct {
	sim           *sim.Simulator
	rate          units.Rate
	buf           int
	out           func(packet.Packet)
	queuedBytes   int
	lastDeparture time.Duration
	departFn      func()
	pending       []refPend
	head          int
	down          bool
}

type refPend struct {
	pkt    packet.Packet
	handle sim.Handle
	depart time.Duration
}

func newRefLink(s *sim.Simulator, rate units.Rate, buf int, out func(packet.Packet)) *refLink {
	l := &refLink{sim: s, rate: rate, buf: buf, out: out}
	l.departFn = l.departHead
	return l
}

func (l *refLink) Reset(rate units.Rate, buf int) {
	l.rate, l.buf = rate, buf
	l.queuedBytes, l.lastDeparture = 0, 0
	l.pending, l.head, l.down = l.pending[:0], 0, false
}

func (l *refLink) SetRate(r units.Rate) {
	old := l.rate
	if r == old {
		return
	}
	now := l.sim.Now()
	l.rate = r
	if r == 0 {
		for i := l.head; i < len(l.pending); i++ {
			l.pending[i].handle.Cancel()
		}
		l.down = true
		return
	}
	prev := now
	for i := l.head; i < len(l.pending); i++ {
		pe := &l.pending[i]
		pe.handle.Cancel()
		var tx time.Duration
		if i == l.head && !l.down {
			if rem := pe.depart - now; rem > 0 {
				tx = time.Duration(float64(rem) * float64(old) / float64(r))
			}
		} else {
			tx = r.TxTime(pe.pkt.Size)
		}
		prev += tx
		pe.depart = prev
		pe.handle = l.sim.At(prev, l.departFn)
	}
	l.down = false
	if l.head < len(l.pending) {
		l.lastDeparture = prev
	}
}

func (l *refLink) Enqueue(p packet.Packet) {
	now := l.sim.Now()
	if l.buf > 0 && l.queuedBytes+p.Size > l.buf {
		return
	}
	l.queuedBytes += p.Size
	if l.down {
		l.pending = append(l.pending, refPend{pkt: p})
		return
	}
	if l.lastDeparture < now {
		l.lastDeparture = now
	}
	depart := l.lastDeparture + l.rate.TxTime(p.Size)
	l.lastDeparture = depart
	l.pending = append(l.pending, refPend{pkt: p, handle: l.sim.At(depart, l.departFn), depart: depart})
}

func (l *refLink) departHead() {
	p := l.pending[l.head].pkt
	l.head++
	if l.head == len(l.pending) {
		l.pending, l.head = l.pending[:0], 0
	}
	l.queuedBytes -= p.Size
	l.out(p)
}

func (l *refLink) QueueDelay() time.Duration {
	if d := l.lastDeparture - l.sim.Now(); d > 0 {
		return d
	}
	return 0
}

// departure is one packet leaving a link: when, and which.
type departure struct {
	At  time.Duration
	Seq int64
}

// Link-departure opcodes (a byte modulo 7) and the byte that follows each.
const (
	linkOpEnqueue = 0 // also 1: size
	linkOpDown    = 2 // SetRate(0)
	linkOpRate    = 3 // rate in Mbit/s, 1 + b%48
	linkOpStep    = 4
	linkOpAdvance = 5 // Run to b × 50 µs from now: time passes mid-serialization and while down
	linkOpReset   = 6 // b: rate and buffer of the reset link
	linkOpCount   = 7
)

// playLinkDepartures drives a Link and a refLink, each on its own
// simulator, through one op stream and fails on the first difference in
// departure times or order, queue depth, queueing delay or the event
// counters. It also holds the Link to its point: at most one live event.
func playLinkDepartures(t *testing.T, ops []byte) {
	t.Helper()
	var got, want []departure
	ls, rs := sim.New(1), sim.New(1)
	l := NewLink(ls, units.Mbps(12), 0, func(p packet.Packet) { got = append(got, departure{ls.Now(), p.Seq}) })
	r := newRefLink(rs, units.Mbps(12), 0, func(p packet.Packet) { want = append(want, departure{rs.Now(), p.Seq}) })
	seq := int64(0)
	for n := 0; len(ops) > 0; n++ {
		op, b := ops[0]%linkOpCount, byte(0)
		if len(ops) > 1 {
			b = ops[1]
			ops = ops[2:]
		} else {
			ops = ops[1:]
		}
		var what string
		switch op {
		case linkOpEnqueue, linkOpEnqueue + 1:
			p := packet.Packet{Seq: seq, Size: 40 + int(b)*6}
			seq++
			l.Enqueue(p)
			r.Enqueue(p)
			what = fmt.Sprintf("Enqueue(%d B)", p.Size)
		case linkOpDown:
			l.SetRate(0)
			r.SetRate(0)
			what = "SetRate(0)"
		case linkOpRate:
			rate := units.Mbps(1 + float64(b%48))
			l.SetRate(rate)
			r.SetRate(rate)
			what = fmt.Sprintf("SetRate(%v)", rate)
		case linkOpStep:
			if a, c := ls.Step(), rs.Step(); a != c {
				t.Fatalf("op %d: Step = %v, reference %v", n, a, c)
			}
			what = "Step"
		case linkOpAdvance:
			horizon := ls.Now() + time.Duration(b)*50*time.Microsecond
			ls.Run(horizon)
			rs.Run(horizon)
			what = fmt.Sprintf("Run(%v)", horizon)
		case linkOpReset:
			rate, buf := units.Mbps(1+float64(b%16)), int(b/16)*3000
			ls.Reset(1)
			rs.Reset(1)
			l.Reset(rate, buf)
			r.Reset(rate, buf)
			got, want = got[:0], want[:0]
			what = fmt.Sprintf("Reset(%v, %d B)", rate, buf)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d %s: departures diverged:\n got %v\nwant %v", n, what, got, want)
		}
		if l.QueuedBytes() != r.queuedBytes || l.queueDelay() != r.QueueDelay() {
			t.Fatalf("op %d %s: queue %d B / %v, reference %d B / %v",
				n, what, l.QueuedBytes(), l.queueDelay(), r.queuedBytes, r.QueueDelay())
		}
		lst, rst := ls.Stats(), rs.Stats()
		if ls.Now() != rs.Now() || lst.Scheduled != rst.Scheduled || lst.Fired != rst.Fired {
			t.Fatalf("op %d %s: now %v, %+v; reference now %v, %+v", n, what, ls.Now(), lst, rs.Now(), rst)
		}
		if live := ls.Pending(); live > 1 {
			t.Fatalf("op %d %s: %d events live for one link", n, what, live)
		}
	}
}

// linkScripts aim at the transitions uniform bytes reach only by luck;
// they are also FuzzLinkDepartures' seed corpus.
var linkScripts = [][]byte{
	// A backlog, a rate change mid-serialization, a flap with packets
	// held and more arriving while down, then the link back up.
	{0, 200, 0, 200, 0, 10, 0, 250, 5, 3, 3, 40, 4, 0, 2, 0, 0, 100, 0, 100, 5, 20, 3, 11, 4, 0, 4, 0, 5, 255, 5, 255},
	// Down before anything arrives; up again with an empty queue; then a
	// finite buffer that drops, and a reset with packets queued.
	{2, 0, 5, 10, 3, 23, 6, 0x31, 0, 250, 0, 250, 0, 250, 0, 250, 4, 0, 6, 0x12, 0, 1, 5, 255},
	// Rate changes back to back, with and without a flap between.
	{0, 100, 0, 100, 0, 100, 3, 5, 3, 47, 2, 0, 3, 47, 3, 2, 5, 255, 5, 255, 5, 255},
}

func TestLinkDeparturesMatchReference(t *testing.T) {
	for i, ops := range linkScripts {
		t.Run(fmt.Sprint(i), func(t *testing.T) { playLinkDepartures(t, ops) })
	}
	for seed := int64(1); seed <= 20; seed++ {
		ops := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(ops)
		playLinkDepartures(t, ops)
	}
}

// FuzzLinkDepartures holds Link's lane-backed queue to the per-packet
// reference under arbitrary interleavings of Enqueue, SetRate(0),
// SetRate(r), Step, Run and Reset.
func FuzzLinkDepartures(f *testing.F) {
	for _, ops := range linkScripts {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 8192 {
			ops = ops[:8192]
		}
		playLinkDepartures(t, ops)
	})
}

// TestLinkQueueFootprint is the per-packet memory budget of a standing
// queue: an unbuffered link holding 100 000 packets keeps one live event,
// its head's departure, and allocates at most 400 B per queued packet
// (one 64 B lane node, with the pool's growth). A queue that schedules an
// event per packet holds 100 000 events and allocates over 1 400 B each.
func TestLinkQueueFootprint(t *testing.T) {
	const n = 100000
	s := sim.New(1)
	delivered := 0
	l := NewLink(s, units.Mbps(120), 0, func(packet.Packet) { delivered++ })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		l.Enqueue(packet.Packet{Seq: int64(i) * 1500, Size: 1500})
	}
	runtime.ReadMemStats(&after)
	if live := s.Pending(); live != 1 {
		t.Errorf("%d events live with %d packets queued, want 1", live, n)
	}
	perPkt := float64(after.TotalAlloc-before.TotalAlloc) / n
	if perPkt > 400 {
		t.Errorf("%.0f B allocated per queued packet, budget 400", perPkt)
	}
	s.Run(time.Hour)
	if delivered != n || l.QueuedBytes() != 0 {
		t.Errorf("delivered %d of %d, %d B still queued", delivered, n, l.QueuedBytes())
	}
	t.Logf("%.0f B allocated per queued packet", perPkt)
}

// queueDelay returns the delay a packet arriving now would experience
// before its own transmission completes (waiting plus serialization of the
// backlog ahead of it).
func (l *Link) queueDelay() time.Duration {
	if d := l.lastDeparture - l.sim.Now(); d > 0 {
		return d
	}
	return 0
}
