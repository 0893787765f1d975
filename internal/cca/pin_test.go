package cca_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"starvation/internal/cca"
	_ "starvation/internal/cca/algo1"
	_ "starvation/internal/cca/allegro"
	_ "starvation/internal/cca/bbr"
	_ "starvation/internal/cca/constwnd"
	_ "starvation/internal/cca/copa"
	_ "starvation/internal/cca/cubic"
	_ "starvation/internal/cca/fast"
	_ "starvation/internal/cca/ledbat"
	_ "starvation/internal/cca/reno"
	_ "starvation/internal/cca/vegas"
	_ "starvation/internal/cca/verus"
	_ "starvation/internal/cca/vivace"
)

// pinned is the hash of every (Window, PacingRate) pair drive reads from
// each registered CCA, and from the three Theorem 1 restarts at
// (restartRm, restartCwnd). A change that moves one moves a default.
var pinned = map[string]uint64{
	"algo1":          0xfea9ad2d027c2be7,
	"allegro":        0x62836c4abc9e0be9,
	"bbr":            0x882b3eae81699c21,
	"constwnd":       0xf87944eb7204143f,
	"copa":           0x6cb4182350010166,
	"cubic":          0x3f105c467d908621,
	"fast":           0x79eccfd7f3978422,
	"ledbat":         0x98ec3c9e0660376e,
	"reno":           0xd983146cb181bf36,
	"vegas":          0x11a116cb2d3780a,
	"verus":          0xcbbb630174f5d8c4,
	"vivace":         0xdb42a2e3ef9976e9,
	"vegas/restart":  0x189cea1f5b016c0f,
	"fast/restart":   0x7a2e7f8d6703b613,
	"ledbat/restart": 0x913ae70b19032217,
}

const (
	pinMSS      = 1500
	restartRm   = 50 * time.Millisecond
	restartCwnd = 40
)

// restarted builds the named CCA from the registry and resumes it from a
// converged state, as the Theorem 1 construction does.
func restarted(name string) cca.Algorithm {
	alg := cca.Lookup(name)(pinMSS, rand.New(rand.NewSource(1)))
	alg.(interface {
		Restart(rm time.Duration, cwndPkts float64)
	}).Restart(restartRm, restartCwnd)
	return alg
}

// drive feeds alg one fixed 12 s script, one ACK per millisecond, and
// hashes the (Window, PacingRate) pair after every signal. The RTT rises
// from 50 to 200 ms over the first 4 s, falls back over the next 4 s and
// then holds; one loss comes at 3 s and one timeout at 6 s. Tickers tick
// on their own TickInterval and send observers see one segment per ACK.
func drive(alg cca.Algorithm) uint64 {
	const (
		steps     = 12000
		ramp      = 4000
		lossAt    = 3000
		timeoutAt = 6000
	)
	h := fnv.New64a()
	var buf [16]byte
	record := func() {
		binary.LittleEndian.PutUint64(buf[:8], uint64(int64(alg.Window())))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(float64(alg.PacingRate())))
		h.Write(buf[:])
	}
	rtt := func(i int) time.Duration {
		up := i
		if i >= ramp {
			up = max(2*ramp-i, 0)
		}
		return 50*time.Millisecond + time.Duration(up)*150*time.Millisecond/ramp
	}
	tk, _ := alg.(cca.Ticker)
	so, _ := alg.(cca.SendObserver)
	interval := func() time.Duration {
		if d := tk.TickInterval(); d > 0 {
			return d
		}
		return time.Millisecond
	}
	var nextTick time.Duration
	if tk != nil {
		nextTick = interval()
	}
	record()
	for i := range steps {
		now := time.Duration(i+1) * time.Millisecond
		for tk != nil && nextTick <= now {
			tk.OnTick(nextTick)
			record()
			nextTick += interval()
		}
		if so != nil {
			so.OnSend(cca.SendSignal{Now: now, Bytes: pinMSS, Seq: int64(i) * pinMSS})
			record()
		}
		switch i {
		case lossAt:
			alg.OnLoss(cca.LossSignal{Now: now, Bytes: pinMSS, NewEvent: true, InFlight: 9 * pinMSS})
			record()
		case timeoutAt:
			alg.OnLoss(cca.LossSignal{Now: now, Bytes: 10 * pinMSS, NewEvent: true, Timeout: true})
			record()
		}
		alg.OnAck(cca.AckSignal{Now: now, RTT: rtt(i), AckedBytes: pinMSS, DeliveredBytes: pinMSS,
			Packets: 1, InFlight: 10 * pinMSS})
		record()
	}
	return h.Sum64()
}

// TestRegistryDefaultsPinned drives every registered CCA, and the Theorem 1
// restarts of Vegas, FAST and LEDBAT, through one script and compares the
// hash of everything each reported with the pinned table.
func TestRegistryDefaultsPinned(t *testing.T) {
	got := map[string]uint64{}
	for _, name := range cca.Names() {
		got[name] = drive(cca.Lookup(name)(pinMSS, rand.New(rand.NewSource(1))))
	}
	for _, name := range []string{"vegas", "fast", "ledbat"} {
		got[name+"/restart"] = drive(restarted(name))
	}
	for name, h := range got {
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s: not pinned (hash %#x)", name, h)
		} else if h != want {
			t.Errorf("%s: hash %#x, want %#x", name, h, want)
		}
	}
	for name := range pinned {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but not registered", name)
		}
	}
}
