package bbr

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"starvation/internal/cca"
)

func newTestBBR() *sender {
	return newSender(config{mss: 1500, rng: rand.New(rand.NewSource(1))})
}

// feedSteady delivers acks at a steady rate (bytes/s) with the given RTT
// for the given span, returning the end time.
func feedSteady(b *sender, start time.Duration, rateBps float64, rtt, span time.Duration) time.Duration {
	interval := time.Duration(1500 / rateBps * float64(time.Second))
	now := start
	for now < start+span {
		now += interval
		b.OnAck(cca.AckSignal{Now: now, RTT: rtt, AckedBytes: 1500,
			DeliveredBytes: 1500, Packets: 1, InFlight: int(rateBps * rtt.Seconds())})
	}
	return now
}

func TestStartupState(t *testing.T) {
	b := newTestBBR()
	if b.stateName() != "startup" {
		t.Errorf("initial state = %s, want startup", b.stateName())
	}
	if b.PacingRate() != 0 {
		t.Error("pacing before any bandwidth sample should be unlimited (ACK-clocked)")
	}
}

func TestBandwidthEstimate(t *testing.T) {
	b := newTestBBR()
	const rate = 1.5e6 // bytes/s = 12 Mbit/s
	feedSteady(b, 0, rate, 40*time.Millisecond, time.Second)
	got := b.btlBw.Get(0)
	if got < rate*0.9 || got > rate*1.2 {
		t.Errorf("BtlBw = %.0f bytes/s, want ~%.0f", got, rate)
	}
}

func TestRTpropIsWindowedMin(t *testing.T) {
	b := newTestBBR()
	feedSteady(b, 0, 1.5e6, 50*time.Millisecond, 200*time.Millisecond)
	feedSteady(b, 200*time.Millisecond, 1.5e6, 40*time.Millisecond, 200*time.Millisecond)
	feedSteady(b, 400*time.Millisecond, 1.5e6, 60*time.Millisecond, 200*time.Millisecond)
	if got := b.rtprop(); got != 40*time.Millisecond {
		t.Errorf("RTprop = %v, want windowed min 40ms", got)
	}
}

func TestExitsStartupWhenBwPlateaus(t *testing.T) {
	b := newTestBBR()
	feedSteady(b, 0, 1.5e6, 40*time.Millisecond, 2*time.Second)
	if b.stateName() == "startup" {
		t.Errorf("still in startup after 50 RTTs of flat bandwidth")
	}
}

func TestReachesProbeBWAndCycles(t *testing.T) {
	b := newTestBBR()
	now := feedSteady(b, 0, 1.5e6, 40*time.Millisecond, 2*time.Second)
	// Drain inflight below the BDP so Drain exits.
	b.OnAck(cca.AckSignal{Now: now, RTT: 40 * time.Millisecond, AckedBytes: 1500,
		DeliveredBytes: 1500, InFlight: 0})
	feedSteady(b, now, 1.5e6, 40*time.Millisecond, time.Second)
	if b.stateName() != "probebw" {
		t.Fatalf("state = %s, want probebw", b.stateName())
	}
	// Over a full gain cycle the pacing gain must visit 1.25 and 0.75.
	seen := map[float64]bool{}
	end := b.lastAckTime + 8*10*40*time.Millisecond
	feedWatch := func(now time.Duration) {
		seen[b.pacingGain] = true
	}
	nw := b.lastAckTime
	for nw < end {
		nw += time.Millisecond
		b.OnAck(cca.AckSignal{Now: nw, RTT: 40 * time.Millisecond, AckedBytes: 1500,
			DeliveredBytes: 1500, InFlight: 60000})
		feedWatch(nw)
	}
	if !seen[1.25] || !seen[0.75] || !seen[1.0] {
		t.Errorf("gain cycle incomplete: %v", seen)
	}
}

func TestCwndFormula(t *testing.T) {
	b := newTestBBR()
	feedSteady(b, 0, 1.5e6, 40*time.Millisecond, 2*time.Second)
	bw := b.btlBw.Get(0)
	want := 2*bw*0.040 + 4*1500
	got := float64(b.Window())
	if got < want*0.9 || got > want*1.1 {
		t.Errorf("Window = %v, want ~%v (2·BDP + α)", got, want)
	}
}

// enterProbeRTT feeds b a steadily increasing RTT with 40 packets in
// flight: the min filter's sample goes stale after rtpropWindow (10 s)
// without refresh. It returns the time of the ACK that entered ProbeRTT,
// or 0 if none did.
func enterProbeRTT(b *sender) time.Duration {
	now := time.Duration(0)
	rtt := 40 * time.Millisecond
	for now < 12*time.Second {
		now += 10 * time.Millisecond
		rtt += 2 * time.Microsecond
		b.OnAck(cca.AckSignal{Now: now, RTT: rtt, AckedBytes: 1500,
			DeliveredBytes: 1500, InFlight: 60000})
		if b.stateName() == "probertt" {
			return now
		}
	}
	return 0
}

func TestProbeRTTEntryOnStaleEstimate(t *testing.T) {
	b := newTestBBR()
	if enterProbeRTT(b) == 0 {
		t.Fatal("never entered ProbeRTT with a stale estimate")
	}
	if got := b.Window(); got != 4*1500 {
		t.Errorf("ProbeRTT window = %d, want 4 MSS", got)
	}
}

// TestProbeRTTExitWaitsForFloor feeds ProbeRTT a standing queue: the
// flow's own backlog drains one packet per 10 ms, from 40 packets to the
// 4-packet floor (360 ms, longer than probeRTTDuration), with every RTT
// sample inflated. BBR must stay in ProbeRTT until inflight reaches the
// floor, and then for max(probeRTTDuration, one packet-timed round): until
// an ACK echoes a segment sent at or after the floor was reached. An echo
// of a retransmission (RTT 0, Karn-filtered) carries no send time and
// never completes the round.
func TestProbeRTTExitWaitsForFloor(t *testing.T) {
	const mss, step = 1500, 10 * time.Millisecond
	for _, tc := range []struct {
		name string
		rtt  time.Duration // every sample's RTT from the floor on
		exit time.Duration // after the floor
	}{
		{"round shorter than the dwell", 40 * time.Millisecond, 200 * time.Millisecond},
		{"round longer than the dwell", 300 * time.Millisecond, 300 * time.Millisecond},
		{"Karn-filtered echoes", 0, time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newTestBBR()
			now := enterProbeRTT(b)
			if now == 0 {
				t.Fatal("never entered ProbeRTT")
			}
			entered := now
			ack := func(rtt time.Duration, inflight int) {
				now += step
				b.OnAck(cca.AckSignal{Now: now, RTT: rtt, AckedBytes: mss,
					DeliveredBytes: mss, Packets: 1, InFlight: inflight})
			}
			for inflight := 40 * mss; inflight > 4*mss; {
				inflight -= mss
				ack(400*time.Millisecond, inflight)
				if b.stateName() != "probertt" {
					t.Fatalf("left ProbeRTT %v after entry with %d B in flight, above the 4-packet floor",
						now-entered, inflight)
				}
			}
			floor := now
			for now+step < floor+tc.exit {
				ack(tc.rtt, 4*mss)
				if b.stateName() != "probertt" {
					t.Fatalf("left ProbeRTT %v after reaching the floor, want %v", now-floor, tc.exit)
				}
			}
			rtt := tc.rtt
			if rtt == 0 {
				rtt = 40 * time.Millisecond // the first echo with a send time
			}
			ack(rtt, 4*mss)
			if b.stateName() == "probertt" {
				t.Fatalf("still in ProbeRTT %v after reaching the floor, want exit at %v", now-floor, tc.exit)
			}
		})
	}
}

func TestProbeRTTDisabled(t *testing.T) {
	b := newSender(config{mss: 1500, rng: rand.New(rand.NewSource(1)), disableProbeRTT: true})
	now := time.Duration(0)
	for now < 15*time.Second {
		now += 10 * time.Millisecond
		b.OnAck(cca.AckSignal{Now: now, RTT: 40 * time.Millisecond, AckedBytes: 1500,
			DeliveredBytes: 1500, InFlight: 60000})
	}
	if b.stateName() == "probertt" {
		t.Error("ProbeRTT entered despite disableProbeRTT")
	}
}

func TestRTpropHintPins(t *testing.T) {
	b := newSender(config{mss: 1500, rng: rand.New(rand.NewSource(1)), rtpropHint: 33 * time.Millisecond})
	feedSteady(b, 0, 1.5e6, 50*time.Millisecond, time.Second)
	if got := b.rtprop(); got != 33*time.Millisecond {
		t.Errorf("RTprop = %v, want pinned 33ms", got)
	}
}

func TestMaxFilterOverestimatesUnderJitter(t *testing.T) {
	// The §5.2 mechanism: bursty ACK arrival makes some RTT-long intervals
	// carry more than the average rate, and the max filter latches that —
	// the entry ticket to cwnd-limited mode.
	bSmooth := newTestBBR()
	feedSteady(bSmooth, 0, 1.5e6, 40*time.Millisecond, 2*time.Second)

	bJitter := newTestBBR()
	rng := rand.New(rand.NewSource(7))
	now := time.Duration(0)
	for now < 2*time.Second {
		// Same average rate, delivered in bunches.
		n := rng.Intn(8) + 1
		now += time.Duration(n) * time.Millisecond
		bJitter.OnAck(cca.AckSignal{Now: now, RTT: 40 * time.Millisecond,
			AckedBytes: n * 1500, DeliveredBytes: n * 1500, InFlight: 60000})
	}
	if bJitter.btlBw.Get(0) <= bSmooth.btlBw.Get(0) {
		t.Errorf("jittered bw estimate %.0f not above smooth %.0f",
			bJitter.btlBw.Get(0), bSmooth.btlBw.Get(0))
	}
}

func TestRegistry(t *testing.T) {
	f := cca.Lookup("bbr")
	if f == nil {
		t.Fatal("bbr not registered")
	}
	if alg := f(1500, rand.New(rand.NewSource(1))); alg.Name() != "bbr" {
		t.Error("registry returned wrong algorithm")
	}
}

func TestIgnoresLoss(t *testing.T) {
	b := newTestBBR()
	feedSteady(b, 0, 1.5e6, 40*time.Millisecond, time.Second)
	w := b.Window()
	p := b.PacingRate()
	b.OnLoss(cca.LossSignal{Now: 2 * time.Second, Bytes: 1500, NewEvent: true})
	if b.Window() != w || b.PacingRate() != p {
		t.Error("the §5.2 BBR model must not react to loss")
	}
}

// memmoveHistory is the delivery history as it was before the head index:
// every prune shifts the surviving points to the front of the slice.
// TestHistoryPruneMatchesMemmove pins the head-indexed history against it.
type memmoveHistory struct {
	keep   time.Duration
	points []histPoint
}

func (h *memmoveHistory) add(now time.Duration, delivered int64) {
	h.points = append(h.points, histPoint{now, delivered})
	i := 0
	for i < len(h.points) && now-h.points[i].t > h.keep {
		i++
	}
	if i > 0 {
		h.points = append(h.points[:0], h.points[i:]...)
	}
}

func (h *memmoveHistory) deliveredAt(t time.Duration) (int64, time.Duration) {
	if len(h.points) == 0 {
		return 0, 0
	}
	if t <= h.points[0].t {
		return h.points[0].delivered, h.points[0].t
	}
	i := sort.Search(len(h.points), func(i int) bool { return h.points[i].t > t })
	return h.points[i-1].delivered, h.points[i-1].t
}

// TestHistoryPruneMatchesMemmove feeds 30 emulated seconds of irregularly
// spaced ACKs — twice the 15 s the history keeps, so points expire on most
// of them — and checks after every ACK that the live history and
// deliveredAt lookups across it (before the oldest point, at and between
// points, at now) equal the memmove implementation's, and that the dead
// prefix never outgrows the live part.
func TestHistoryPruneMatchesMemmove(t *testing.T) {
	b := newTestBBR()
	ref := &memmoveHistory{keep: rtpropWindow + 5*time.Second}
	rng := rand.New(rand.NewSource(7))
	var delivered int64
	now := time.Duration(0)
	for now < 30*time.Second {
		gap := time.Duration(100+rng.Intn(800)) * time.Microsecond
		if rng.Intn(20000) == 0 {
			gap = time.Duration(rng.Intn(3000)) * time.Millisecond // an idle spell expires a long run at once
		}
		now += gap
		n := 1500 * rng.Intn(3)
		delivered += int64(n)
		b.OnAck(cca.AckSignal{Now: now, RTT: 40 * time.Millisecond, AckedBytes: n,
			DeliveredBytes: n, Packets: 1, InFlight: 30000})
		ref.add(now, delivered)

		live := b.history[b.histHead:]
		if len(live) != len(ref.points) || live[0] != ref.points[0] {
			t.Fatalf("t=%v: live history %d points from %+v, want %d from %+v",
				now, len(live), live[0], len(ref.points), ref.points[0])
		}
		if b.histHead > len(live) {
			t.Fatalf("t=%v: dead prefix %d exceeds live part %d", now, b.histHead, len(live))
		}
		for _, at := range []time.Duration{
			live[0].t - time.Millisecond, live[0].t, now - 16*time.Second,
			now - time.Duration(rng.Int63n(int64(15*time.Second))),
			now - 40*time.Millisecond, now,
		} {
			gd, gt := b.deliveredAt(at)
			wd, wt := ref.deliveredAt(at)
			if gd != wd || gt != wt {
				t.Fatalf("t=%v: deliveredAt(%v) = (%d, %v), want (%d, %v)", now, at, gd, gt, wd, wt)
			}
		}
	}
	if ref.points[0].t < 14*time.Second {
		t.Fatalf("history never expired: oldest point at %v after %v", ref.points[0].t, now)
	}
}

// TestWindowAndPacingRateAreCurrent pins the once-per-ACK evaluation: right
// after newSender and after every OnAck, Window and PacingRate equal the formulas
// evaluated afresh. The seeded ACK streams — irregular spacing, bursts,
// Karn-filtered samples, a slowly rising RTT that lets the RTprop estimate
// go stale — cross Startup → Drain → ProbeBW and, where the configuration
// allows it, enter and leave ProbeRTT.
func TestWindowAndPacingRateAreCurrent(t *testing.T) {
	states := []string{"startup", "drain", "probebw", "probertt"}
	for _, tc := range []struct {
		name string
		cfg  config
		want []string
	}{
		{"default", config{}, states},
		{"rtprop-hint", config{rtpropHint: 33 * time.Millisecond}, states[:3]},
		{"no-probertt", config{disableProbeRTT: true}, states[:3]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cfg := tc.cfg
				cfg.mss, cfg.rng = 1500, rand.New(rand.NewSource(seed))
				b := newSender(cfg)
				check := func(when string) {
					t.Helper()
					if w, r := b.Window(), b.PacingRate(); w != b.window() || r != b.pacingRate() {
						t.Fatalf("seed %d, %s in %s: Window %d PacingRate %v, the formulas give %d and %v",
							seed, when, b.stateName(), w, r, b.window(), b.pacingRate())
					}
				}
				check("after newSender")
				seen := map[string]bool{}
				leftProbeRTT := false
				now, rtt := time.Duration(0), 40*time.Millisecond
				for now < 25*time.Second {
					now += 200*time.Microsecond + time.Duration(rng.Int63n(int64(2*time.Millisecond)))
					rtt += 2 * time.Microsecond
					s := cca.AckSignal{Now: now, RTT: rtt, Packets: 1, InFlight: rng.Intn(120000)}
					s.AckedBytes = 1500 * rng.Intn(4)
					s.DeliveredBytes = s.AckedBytes
					if rng.Intn(16) == 0 {
						s.RTT = 0 // echo of a retransmission
					}
					was := b.stateName()
					b.OnAck(s)
					check("at " + now.String())
					seen[b.stateName()] = true
					leftProbeRTT = leftProbeRTT || was == "probertt" && b.stateName() != was
				}
				for _, st := range tc.want {
					if !seen[st] {
						t.Errorf("seed %d: never in %s (saw %v)", seed, st, seen)
					}
				}
				if seen["probertt"] != leftProbeRTT || len(seen) != len(tc.want) {
					t.Errorf("seed %d: states %v, left ProbeRTT %v; want exactly %v", seed, seen, leftProbeRTT, tc.want)
				}
			}
		})
	}
}

// TestNewWithoutRngPanics checks newSender refuses a missing generator instead
// of drawing from a stream outside the run's seed tree.
func TestNewWithoutRngPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "bbr: config.rng is nil" {
			t.Errorf("newSender(config{}) recovered %v, want a panic naming config.rng", r)
		}
	}()
	newSender(config{})
}

// stateName returns the current state name.
func (b *sender) stateName() string {
	switch b.st {
	case stStartup:
		return "startup"
	case stDrain:
		return "drain"
	case stProbeBW:
		return "probebw"
	default:
		return "probertt"
	}
}
