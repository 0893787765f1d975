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
// one departure event per queued packet. It keeps only what departure
// timing depends on, and is the reference FuzzLinkDepartures holds Link
// to.
type refLink struct {
	sim           *sim.Simulator
	rate          units.Rate
	buf           int
	out           func(packet.Packet)
	queuedBytes   int
	lastDeparture time.Duration
	departFn      func()
	pending       []packet.Packet
	head          int
}

func newRefLink(s *sim.Simulator, rate units.Rate, buf int, out func(packet.Packet)) *refLink {
	l := &refLink{sim: s, rate: rate, buf: buf, out: out}
	l.departFn = l.departHead
	return l
}

func (l *refLink) Reset(rate units.Rate, buf int) {
	l.rate, l.buf = rate, buf
	l.queuedBytes, l.lastDeparture = 0, 0
	l.pending, l.head = l.pending[:0], 0
}

func (l *refLink) Enqueue(p packet.Packet) {
	now := l.sim.Now()
	if l.buf > 0 && l.queuedBytes+p.Size > l.buf {
		return
	}
	l.queuedBytes += p.Size
	if l.lastDeparture < now {
		l.lastDeparture = now
	}
	l.lastDeparture += l.rate.TxTime(p.Size)
	l.pending = append(l.pending, p)
	l.sim.At(l.lastDeparture, l.departFn)
}

func (l *refLink) departHead() {
	p := l.pending[l.head]
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

// Link-departure opcodes (a byte modulo 5) and the byte that follows each.
const (
	linkOpEnqueue = 0 // also 1: size
	linkOpStep    = 2
	linkOpAdvance = 3 // Run to b × 50 µs from now: time passes mid-serialization and while idle
	linkOpReset   = 4 // b: rate and buffer of the reset link
	linkOpCount   = 5
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
	// A backlog, time passing mid-serialization, more arriving behind
	// it, then the queue drained.
	{0, 200, 0, 200, 0, 10, 0, 250, 3, 3, 2, 0, 1, 100, 0, 100, 3, 20, 2, 0, 2, 0, 3, 255, 3, 255},
	// Time passing on an idle link; then a finite buffer that drops, and
	// a reset with packets queued.
	{3, 10, 4, 0x31, 0, 250, 0, 250, 0, 250, 0, 250, 2, 0, 4, 0x12, 0, 1, 3, 255},
	// Arrivals at one instant, an idle gap, arrivals again.
	{0, 100, 0, 100, 0, 100, 3, 255, 3, 255, 1, 5, 0, 47, 2, 0, 3, 255},
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
// reference under arbitrary interleavings of Enqueue, Step, Run and
// Reset.
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
