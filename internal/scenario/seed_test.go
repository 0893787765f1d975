package scenario

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/cca/reno"
	"starvation/internal/network"
	"starvation/internal/obs"
	"starvation/internal/rng"
	"starvation/internal/units"
)

// rngProbeGens collects the generator parseFlows hands each "rngprobe"
// flow, in flow order. The CCA itself is Reno and never draws, so every
// generator is still at the start of its stream.
var rngProbeGens []*rand.Rand

func init() {
	cca.Register("rngprobe", func(mss int, r *rand.Rand) cca.Algorithm {
		rngProbeGens = append(rngProbeGens, r)
		return reno.New(reno.Config{MSS: mss})
	})
}

// gateDecisions records, per flow, each loss-gate decision (true = drop)
// in order: a gate drop is the only drop without a queue view; every
// other first-hop enqueue or drop passed the gate.
type gateDecisions map[int][]bool

func (g gateDecisions) Emit(e obs.Event) {
	if e.Hop == 0 && (e.Type == obs.EvEnqueue || e.Type == obs.EvDrop) {
		g[int(e.Flow)] = append(g[int(e.Flow)], e.Type == obs.EvDrop && e.Queue < 0)
	}
}

// predict replays the decisions a gate of probability p would make from r.
func predict(r *rand.Rand, n int, p float64) []bool {
	out := make([]bool, n)
	for k := range out {
		out[k] = r.Float64() < p
	}
	return out
}

// TestCCAStreamIsNotLossGate checks that a flow's CCA generator and its
// loss gate read different streams: the gate's drops, replayed from the
// CCA's generator, must not come out the same.
func TestCCAStreamIsNotLossGate(t *testing.T) {
	const seed, p = 4, 0.02
	rngProbeGens = nil
	specs, err := parseFlows("rngprobe*3:loss=0.02", seed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rngProbeGens) != 3 {
		t.Fatalf("captured %d generators, want 3", len(rngProbeGens))
	}
	got := gateDecisions{}
	network.New(network.Config{Rate: units.Mbps(24), Seed: seed, Probe: got}, specs...).Run(2 * time.Second)
	for i, r := range rngProbeGens {
		dec := got[i]
		drops := 0
		for _, d := range dec {
			if d {
				drops++
			}
		}
		if drops == 0 {
			t.Fatalf("flow %d: the gate dropped none of %d packets", i, len(dec))
		}
		// The decoding is right: the gate's own stream replays exactly.
		if !slices.Equal(predict(rng.New(rng.Derive(seed, i, rng.Gate)), len(dec), p), dec) {
			t.Fatalf("flow %d: gate decisions do not replay from the gate stream", i)
		}
		if slices.Equal(predict(r, len(dec), p), dec) {
			t.Errorf("flow %d: the CCA's generator replays its loss gate's %d drops of %d packets", i, drops, len(dec))
		}
	}
}
