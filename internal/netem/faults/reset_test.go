package faults

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"starvation/internal/packet"
	"starvation/internal/sim"
)

// TestGEGateResetIndistinguishableFromFresh pins that Reset(cfg, seed)
// reproduces the exact drop sequence of NewGEGate with a fresh
// rand.NewSource(seed): same pass/drop decisions, same burst structure,
// same counters, same channel state.
func TestGEGateResetIndistinguishableFromFresh(t *testing.T) {
	cfg := GEConfig{PGoodToBad: 0.02, PBadToGood: 0.3, PDropBad: 0.7}
	drive := func(g *GEGate) []int64 {
		var passed []int64
		g.out = func(p packet.Packet) { passed = append(passed, p.Seq) }
		for i := 0; i < 2000; i++ {
			g.Send(packet.Packet{Seq: int64(i), Size: 1500})
		}
		return passed
	}
	fresh := NewGEGate(cfg, rand.New(rand.NewSource(13)), nil)
	want := drive(fresh)

	reused := NewGEGate(GEConfig{PGoodToBad: 0.5, PBadToGood: 0.01, PDropBad: 1}, rand.New(rand.NewSource(99)), nil)
	drive(reused) // dirty: very different loss regime, likely parked in bad state
	reused.Reset(cfg, 13)
	got := drive(reused)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("reset GE gate pass sequence diverged (%d vs %d passed)", len(got), len(want))
	}
	if reused.Passed != fresh.Passed || reused.Dropped != fresh.Dropped || reused.Bad() != fresh.Bad() {
		t.Errorf("state diverged: passed %d/%d dropped %d/%d bad %v/%v",
			reused.Passed, fresh.Passed, reused.Dropped, fresh.Dropped, reused.Bad(), fresh.Bad())
	}
}

// TestReordererResetIndistinguishableFromFresh pins reuse of the deferral
// element: with the simulator reset first and the reorderer reset to the
// same seed — while its dirty run still holds deferred packets — release
// times and order match a fresh reorderer exactly.
func TestReordererResetIndistinguishableFromFresh(t *testing.T) {
	cfg := ReorderConfig{P: 0.1, Delay: 4 * time.Millisecond}
	type arrival struct {
		At  time.Duration
		Seq int64
	}
	scenario := func(s *sim.Simulator, r *Reorderer, log *[]arrival, horizon time.Duration) {
		r.out = func(p packet.Packet) { *log = append(*log, arrival{s.Now(), p.Seq}) }
		for i := 0; i < 200; i++ {
			i := i
			s.At(time.Duration(i)*time.Millisecond, func() {
				r.Send(packet.Packet{Seq: int64(i), Size: 1500})
			})
		}
		s.Run(horizon)
	}

	var want []arrival
	fs := sim.New(1)
	fresh := NewReorderer(cfg, rand.New(rand.NewSource(21)), fs, nil)
	scenario(fs, fresh, &want, time.Second)

	var got []arrival
	rs := sim.New(2)
	reused := NewReorderer(ReorderConfig{P: 0.9, Delay: 50 * time.Millisecond}, rand.New(rand.NewSource(5)), rs, nil)
	scenario(rs, reused, &got, 100*time.Millisecond)
	if reused.Held() == 0 {
		t.Fatal("dirty run holds no deferred packet at reset")
	}
	rs.Reset(1)
	reused.Reset(cfg, 21)
	got = got[:0]
	scenario(rs, reused, &got, time.Second)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("reset reorderer release log diverged (%d vs %d releases)", len(got), len(want))
	}
	if reused.Passed != fresh.Passed || reused.Deferred != fresh.Deferred || reused.Held() != 0 {
		t.Errorf("counters diverged: passed %d/%d deferred %d/%d held %d",
			reused.Passed, fresh.Passed, reused.Deferred, fresh.Deferred, reused.Held())
	}
}

// TestDuplicatorResetIndistinguishableFromFresh pins that a reset
// duplicator clones the same packets as a fresh one with the same seed.
func TestDuplicatorResetIndistinguishableFromFresh(t *testing.T) {
	cfg := DupConfig{P: 0.05}
	drive := func(d *Duplicator) []packet.Packet {
		var out []packet.Packet
		d.out = func(p packet.Packet) { out = append(out, p) }
		for i := 0; i < 1000; i++ {
			d.Send(packet.Packet{Seq: int64(i), Size: 1500})
		}
		return out
	}
	fresh := NewDuplicator(cfg, rand.New(rand.NewSource(31)), nil)
	want := drive(fresh)

	reused := NewDuplicator(DupConfig{P: 0.8}, rand.New(rand.NewSource(2)), nil)
	drive(reused)
	reused.Reset(cfg, 31)
	got := drive(reused)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("reset duplicator output diverged (%d vs %d packets)", len(got), len(want))
	}
	if reused.Passed != fresh.Passed || reused.Duplicated != fresh.Duplicated {
		t.Errorf("counters diverged: passed %d/%d duplicated %d/%d",
			reused.Passed, fresh.Passed, reused.Duplicated, fresh.Duplicated)
	}
}
