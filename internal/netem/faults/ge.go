package faults

import (
	"fmt"
	"math/rand"

	"starvation/internal/netem"
	"starvation/internal/obs"
	"starvation/internal/packet"
	"starvation/internal/sim"
)

// GEConfig parameterizes a Gilbert–Elliott loss gate: a two-state Markov
// chain stepped once per packet. In the Good state packets drop with
// probability PDropGood (usually 0); in the Bad state with PDropBad. The
// chain moves Good→Bad with probability PGoodToBad and Bad→Good with
// PBadToGood, so the mean burst length is 1/PBadToGood packets and the
// stationary Bad-state fraction is PGoodToBad/(PGoodToBad+PBadToGood).
type GEConfig struct {
	PGoodToBad float64 // per-packet transition probability Good → Bad
	PBadToGood float64 // per-packet transition probability Bad → Good
	PDropBad   float64 // drop probability while Bad
	PDropGood  float64 // drop probability while Good (usually 0)
}

// Validate reports the first problem with the configuration.
func (c GEConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PGoodToBad", c.PGoodToBad},
		{"PBadToGood", c.PBadToGood},
		{"PDropBad", c.PDropBad},
		{"PDropGood", c.PDropGood},
	} {
		if err := probability(p.name, p.v); err != nil {
			return err
		}
	}
	if c.PGoodToBad > 0 && c.PBadToGood == 0 {
		return fmt.Errorf("PBadToGood is 0: the chain would absorb into the Bad state")
	}
	return nil
}

// MeanLoss returns the stationary drop probability of the chain — the
// Bernoulli rate a GE gate averages out to, useful for constructing bursty
// counterparts of random-loss scenarios at matched mean loss.
func (c GEConfig) MeanLoss() float64 {
	denom := c.PGoodToBad + c.PBadToGood
	if denom == 0 {
		return c.PDropGood
	}
	bad := c.PGoodToBad / denom
	return bad*c.PDropBad + (1-bad)*c.PDropGood
}

// GEGate is the Gilbert–Elliott bursty-loss element. Like LossGate it sits
// before the bottleneck queue and reports drops with a queue depth of -1.
type GEGate struct {
	cfg GEConfig
	rng *rand.Rand
	out netem.PacketHandler

	sim   *sim.Simulator
	probe obs.Probe
	bad   bool

	Passed     int64 // packets forwarded downstream
	Dropped    int64 // packets discarded
	BadEntries int64 // Good→Bad transitions (loss bursts started)
}

// NewGEGate returns a gate feeding out. The chain starts in the Good state.
func NewGEGate(cfg GEConfig, rng *rand.Rand, out netem.PacketHandler) *GEGate {
	return &GEGate{cfg: cfg, rng: rng, out: out}
}

// SetProbe installs a lifecycle-event probe. The simulator supplies drop
// timestamps; without it events carry At zero.
func (g *GEGate) SetProbe(s *sim.Simulator, p obs.Probe) {
	g.sim = s
	g.probe = p
}

// Reset returns the gate to the state NewGEGate(cfg, rng, out) would
// produce with a generator freshly seeded with seed: chain back in Good,
// counters zeroed, probe cleared. Reseeding in place is bit-equivalent to
// constructing a new rand.Rand from the same seed, so a reset gate
// reproduces a fresh gate's drop sequence exactly.
func (g *GEGate) Reset(cfg GEConfig, seed int64) {
	g.cfg = cfg
	g.rng.Seed(seed)
	g.sim, g.probe = nil, nil
	g.bad = false
	g.Passed, g.Dropped, g.BadEntries = 0, 0, 0
}

// emitState reports a chain transition (Seq 1 = entered Bad, 0 = back to
// Good) so online detectors can attribute starvation onsets to loss
// bursts. Probe-gated and synchronous: the chain steps identically with
// or without a probe.
func (g *GEGate) emitState(flow packet.FlowID, state int64) {
	if g.probe == nil {
		return
	}
	var now sim.Time
	if g.sim != nil {
		now = g.sim.Now()
	}
	g.probe.Emit(obs.Event{Type: obs.EvFaultState, At: now, Flow: flow,
		Seq: state, Queue: -1})
}

// Send steps the chain once and then passes or drops p. The transition is
// evaluated before the drop decision, so a burst can claim the packet that
// triggered it — the standard discrete-time GE formulation.
func (g *GEGate) Send(p packet.Packet) {
	if g.bad {
		if g.cfg.PBadToGood > 0 && g.rng.Float64() < g.cfg.PBadToGood {
			g.bad = false
			g.emitState(p.Flow, 0)
		}
	} else if g.cfg.PGoodToBad > 0 && g.rng.Float64() < g.cfg.PGoodToBad {
		g.bad = true
		g.BadEntries++
		g.emitState(p.Flow, 1)
	}
	pd := g.cfg.PDropGood
	if g.bad {
		pd = g.cfg.PDropBad
	}
	if pd > 0 && g.rng.Float64() < pd {
		g.Dropped++
		if g.probe != nil {
			var now sim.Time
			if g.sim != nil {
				now = g.sim.Now()
			}
			g.probe.Emit(obs.Event{Type: obs.EvDrop, At: now, Flow: p.Flow,
				Seq: p.Seq, Bytes: p.Size, Queue: -1, Retx: p.Retx})
		}
		return
	}
	g.Passed++
	g.out(p)
}
