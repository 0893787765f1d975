package rng

import "testing"

// sourceSeed is the seed math/rand's source actually uses for v: v mod
// 2³¹−1, with 0 replaced (rngSource.Seed).
func sourceSeed(v int64) int64 {
	const m = 1<<31 - 1
	v %= m
	if v < 0 {
		v += m
	}
	if v == 0 {
		v = 89482311
	}
	return v
}

// TestDeriveDistinct checks that no two (flow, stream) pairs of a run seed
// the same math/rand stream, including run seeds whose products wrap: one
// where salts 4 apart would collide (8130202815810337203, flow 0), and the
// ones around 2³¹/10⁶.
func TestDeriveDistinct(t *testing.T) {
	const flows = 10000
	for _, run := range []int64{0, 1, -1, 2147, 2148, 8130202815810337203} {
		type use struct {
			flow int
			s    Stream
		}
		seen := make(map[int64]use, flows*int(numStreams))
		for flow := 0; flow < flows; flow++ {
			for s := Stream(0); s < numStreams; s++ {
				v := sourceSeed(Derive(run, flow, s))
				if prev, ok := seen[v]; ok {
					t.Fatalf("run %d: flow %d stream %d and flow %d stream %d share source seed %d",
						run, prev.flow, prev.s, flow, s, v)
				}
				seen[v] = use{flow, s}
			}
		}
	}
}

// TestDeriveKeepsNetworkSalts pins the salts of the loss, CCA and jitter
// streams: moving one moves every lossy, randomized or jittered
// realization.
func TestDeriveKeepsNetworkSalts(t *testing.T) {
	for s, salt := range map[Stream]int64{Gate: 17, GE: 29, CCA: 43, FwdJitter: 101} {
		if got, want := Derive(5, 3, s), 5*int64(1000003)+3*7919+salt; got != want {
			t.Errorf("stream %d: Derive(5, 3) = %d, want %d", s, got, want)
		}
	}
}
