package faults

import (
	"math/rand"
	"testing"

	"starvation/internal/packet"
)

// FuzzGEGate explores the Gilbert–Elliott state machine over arbitrary
// chain parameters: for every configuration Validate accepts, the gate
// must account for each packet exactly once (Passed + Dropped = offered),
// keep its burst counter consistent with the chain (a burst needs a
// Good→Bad transition, so BadEntries can never exceed offered packets,
// and a chain that cannot leave Good must never drop when PDropGood is
// 0), and replay bit-identically under the same seed.
func FuzzGEGate(f *testing.F) {
	f.Add(0.008, 0.2, 0.5, 0.0, int64(2), uint16(2000))
	f.Add(0.0, 0.5, 1.0, 0.0, int64(1), uint16(100))
	f.Add(1.0, 1.0, 1.0, 1.0, int64(9), uint16(500))
	f.Add(0.02, 0.1, 0.3, 0.01, int64(5), uint16(4000))
	f.Fuzz(func(t *testing.T, pG2B, pB2G, pDropBad, pDropGood float64, seed int64, n uint16) {
		cfg := GEConfig{PGoodToBad: pG2B, PBadToGood: pB2G, PDropBad: pDropBad, PDropGood: pDropGood}
		if cfg.Validate() != nil {
			t.Skip("invalid chain")
		}
		run := func() *GEGate {
			var passed int64
			g := NewGEGate(cfg, rand.New(rand.NewSource(seed)), func(packet.Packet) { passed++ })
			for i := 0; i < int(n); i++ {
				g.Send(packet.Packet{Seq: int64(i), Size: 1500})
			}
			if g.Passed != passed {
				t.Fatalf("Passed counter %d but %d packets forwarded", g.Passed, passed)
			}
			return g
		}
		g := run()
		if g.Passed+g.Dropped != int64(n) {
			t.Fatalf("Passed %d + Dropped %d != offered %d", g.Passed, g.Dropped, n)
		}
		if g.BadEntries < 0 || g.BadEntries > int64(n) {
			t.Fatalf("BadEntries %d outside [0, %d]", g.BadEntries, n)
		}
		if cfg.PGoodToBad == 0 && g.BadEntries != 0 {
			t.Fatalf("chain entered Bad %d times with PGoodToBad = 0", g.BadEntries)
		}
		if cfg.PGoodToBad == 0 && cfg.PDropGood == 0 && g.Dropped != 0 {
			t.Fatalf("all-Good lossless chain dropped %d packets", g.Dropped)
		}
		if ml := cfg.MeanLoss(); ml < 0 || ml > 1 {
			t.Fatalf("MeanLoss %g outside [0, 1]", ml)
		}
		g2 := run()
		if g.Passed != g2.Passed || g.Dropped != g2.Dropped || g.BadEntries != g2.BadEntries {
			t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)",
				g.Passed, g.Dropped, g.BadEntries, g2.Passed, g2.Dropped, g2.BadEntries)
		}
	})
}
