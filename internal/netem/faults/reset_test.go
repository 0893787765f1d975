package faults

import (
	"math/rand"
	"reflect"
	"testing"

	"starvation/internal/packet"
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
	if reused.Passed != fresh.Passed || reused.Dropped != fresh.Dropped || reused.bad != fresh.bad {
		t.Errorf("state diverged: passed %d/%d dropped %d/%d bad %v/%v",
			reused.Passed, fresh.Passed, reused.Dropped, fresh.Dropped, reused.bad, fresh.bad)
	}
}
