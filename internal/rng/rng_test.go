package rng

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Stream ops. A stream is a byte string of (op, arg) pairs; run decodes it
// and applies it to a generator, so the lazy generator and the eager
// reference can be driven through the same sequence and their outputs
// compared value by value. Every draw method the tree uses has an op.
const (
	opInt63 byte = iota
	opUint64
	opInt31n
	opIntn
	opInt63n
	opFloat64
	opNormFloat64
	opExpFloat64
	opPerm
	opShuffle
	opSeed
	numOps
)

// run applies the stream ops to r and returns every value drawn, floats as
// their bit patterns.
func run(r *rand.Rand, ops []byte) []uint64 {
	var out []uint64
	for i := 0; i < len(ops); i += 2 {
		var a byte
		if i+1 < len(ops) {
			a = ops[i+1]
		}
		switch ops[i] % numOps {
		case opInt63:
			out = append(out, uint64(r.Int63()))
		case opUint64:
			out = append(out, r.Uint64())
		case opInt31n:
			out = append(out, uint64(r.Int31n(int32(a)+1)))
		case opIntn:
			out = append(out, uint64(r.Intn(int(a)*977+1)))
		case opInt63n:
			// Up to ~2^36: past Int63n's power-of-two fast path and its
			// rejection threshold for most arguments.
			out = append(out, uint64(r.Int63n(int64(a)*int64(a)*1_000_003+1)))
		case opFloat64:
			out = append(out, math.Float64bits(r.Float64()))
		case opNormFloat64:
			out = append(out, math.Float64bits(r.NormFloat64()))
		case opExpFloat64:
			out = append(out, math.Float64bits(r.ExpFloat64()))
		case opPerm:
			for _, v := range r.Perm(int(a % 40)) {
				out = append(out, uint64(v))
			}
		case opShuffle:
			xs := make([]int, a%40)
			for j := range xs {
				xs[j] = j
			}
			r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			for _, v := range xs {
				out = append(out, uint64(v))
			}
		case opSeed:
			// Zero, negative and positive seeds, and ones past the source's
			// int32 reduction.
			r.Seed(int64(int8(a)) * 1_000_000_007)
		}
	}
	return out
}

// checkStream drives New(seed) and rand.New(rand.NewSource(seed)) through
// ops and fails on the first output that differs.
func checkStream(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	got := run(New(seed), ops)
	want := run(rand.New(rand.NewSource(seed)), ops)
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d values drawn, reference drew %d", seed, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: value %d is %#x, reference %#x", seed, i, got[i], want[i])
		}
	}
}

// everyDraw is one op of each draw method, in order.
func everyDraw() []byte {
	var ops []byte
	for op := opInt63; op < opSeed; op++ {
		ops = append(ops, op, 13+op)
	}
	return ops
}

func cat(parts ...[]byte) []byte {
	var ops []byte
	for _, p := range parts {
		ops = append(ops, p...)
	}
	return ops
}

func TestStreamMatchesMathRand(t *testing.T) {
	draws := everyDraw()
	for _, tc := range []struct {
		name string
		ops  []byte
	}{
		{"every draw", draws},
		{"every draw, long", cat(draws, draws, draws, draws, draws, draws)},
		{"seed before the first draw", cat([]byte{opSeed, 7}, draws)},
		{"seed mid-stream", cat(draws, []byte{opSeed, 200}, draws)},
		{"seed twice in a row", cat(draws, []byte{opSeed, 1, opSeed, 2}, draws)},
		{"seed twice before the first draw", cat([]byte{opSeed, 0, opSeed, 129}, draws)},
		{"re-seed to the same seed", cat(draws, []byte{opSeed, 5}, draws, []byte{opSeed, 5}, draws)},
		{"seed only", []byte{opSeed, 3, opSeed, 4}},
		{"no ops", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{0, 1, -1, 7, 1<<31 - 1, math.MaxInt64, math.MinInt64} {
				checkStream(t, seed, tc.ops)
			}
		})
	}
}

func FuzzSeededStream(f *testing.F) {
	f.Add(int64(1), everyDraw())
	f.Add(int64(-3), cat([]byte{opSeed, 9}, everyDraw(), []byte{opSeed, 0, opSeed, 250}, everyDraw()))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		checkStream(t, seed, ops)
	})
}

// TestNothingBuiltUntilDraw: Seed records a seed and nothing else (New's
// share is TestNewBuildsNoState); the first draw builds the source at the last seed recorded, and a later
// Seed re-seeds that same source rather than building another.
func TestNothingBuiltUntilDraw(t *testing.T) {
	s := &source{seed: 5, stale: true}
	r := rand.New(s)
	r.Seed(6)
	r.Seed(7)
	if s.src != nil {
		t.Fatal("Seed built the source")
	}
	if got, want := r.Int63(), rand.New(rand.NewSource(7)).Int63(); got != want {
		t.Fatalf("first draw %d, want %d (seed 7)", got, want)
	}
	built := s.src
	if built == nil || s.stale {
		t.Fatal("the first draw did not build the source")
	}
	r.Seed(8)
	if !s.stale || s.src != built {
		t.Fatal("Seed on a built source must only record the seed")
	}
	if got, want := r.Uint64(), rand.New(rand.NewSource(8)).Uint64(); got != want {
		t.Fatalf("draw after re-seed %d, want %d (seed 8)", got, want)
	}
	if s.src != built {
		t.Fatal("re-seeding built a second source")
	}
}

// TestNewBuildsNoState bounds the heap bytes New allocates: the two small
// objects it needs, not the ~4.9 KB of a math/rand source.
func TestNewBuildsNoState(t *testing.T) {
	const n = 200
	keep := make([]*rand.Rand, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New(int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 256 {
		t.Errorf("New allocates %d bytes per generator, want at most 256", per)
	}
	runtime.KeepAlive(keep)
}

// TestReseedAllocatesNothing: a recycled generator (a Session's loss gate,
// the simulator's own) is re-seeded in place.
func TestReseedAllocatesNothing(t *testing.T) {
	r := New(1)
	r.Int63()
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		seed++
		r.Seed(seed)
		r.Int63()
	}); allocs != 0 {
		t.Errorf("Seed + draw on a built generator: %v allocations, want 0", allocs)
	}
}
