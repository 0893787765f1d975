// Package scenario packages the paper's empirical experiments (§5 and
// Fig. 7) with their published parameters, so the CLI, the figure harness,
// the experiment service and the benchmark all run exactly the same
// configurations.
//
// Each scenario returns a Result carrying the raw network run plus the
// named observables the paper reports, and records the paper's measured
// values for side-by-side comparison in EXPERIMENTS.md.
package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"starvation/internal/guard"
	"starvation/internal/network"
	"starvation/internal/obs"
)

// Result is one scenario outcome.
type Result struct {
	// ID matches the per-experiment index in DESIGN.md (e.g. "T5.1a").
	ID string
	// Description says what ran.
	Description string
	// PaperClaim quotes the paper's measured numbers for this experiment.
	PaperClaim string
	// Net is the underlying emulation result (nil for closed-form rows).
	Net *network.Result
	// Observables holds the named quantities the paper reports, in the
	// units noted in the key (e.g. "flow0_mbps").
	Observables map[string]float64
}

// String renders the result with observables sorted by name.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s\n  paper: %s\n", r.ID, r.Description, r.PaperClaim)
	keys := make([]string, 0, len(r.Observables))
	for k := range r.Observables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-24s %10.3f\n", k, r.Observables[k])
	}
	if r.Net != nil {
		b.WriteString(indent(r.Net.String(), "  "))
	}
	return b.String()
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// Opts tunes scenario runs without changing their published topology.
type Opts struct {
	// Seed for all randomness. The default (ReferenceSeed) is the
	// realization reported in EXPERIMENTS.md; starvation dynamics are
	// chaotic, and as in the paper's own testbed runs, individual
	// realizations vary (a seed sweep is part of the test suite).
	Seed int64
	// Duration overrides the run length (default per scenario).
	Duration time.Duration
	// Probe, when non-nil, receives the packet-lifecycle event stream of
	// every network the scenario assembles (wired into network.Config).
	// It never alters scheduling or randomness: a run with a probe is
	// event-for-event identical to one without.
	Probe obs.Probe
	// Guard, when non-nil, enables the run-guard layer (stall and
	// conservation checks on element counters) on every network the
	// scenario assembles; a wall-clock budget is a deadline on Ctx. It
	// reads counters only: results are bit-identical with guards on or
	// off.
	Guard *guard.Options
	// Ctx, when non-nil, cancels the scenario's emulations at run-tick
	// granularity (wired into network.Config.Ctx). Observation-only:
	// identical realization until cancellation.
	Ctx context.Context
	// Telemetry, when non-nil, enables the flight recorder on every
	// network the scenario assembles: windowed per-flow series, the
	// online starvation-episode detector, and run-phase spans, reported
	// in Net.Telemetry. Observation-only like Probe: realizations are
	// bit-identical with the recorder on or off.
	Telemetry *network.TelemetryConfig
	// Session, when non-nil, runs the scenario's emulations through a
	// reusable run context that recycles event arenas, endpoint state,
	// and trace buffers across runs instead of reallocating them — the
	// sweep hot path. Realizations are bit-identical with or without a
	// session (the fresh-vs-reused golden parity test pins this).
	// Sessions are single-owner like the simulator: never share one
	// across goroutines (SeedSweep borrows one per seed from a pool).
	Session *network.Session
}

func (o *Opts) fill(defaultDur time.Duration) {
	if o.Seed == 0 {
		o.Seed = ReferenceSeed
	}
	if o.Duration <= 0 {
		o.Duration = defaultDur
	}
}

// emulate runs one network for o.Duration through o.Session (a nil
// session runs one-shot on a throwaway network). The scenario states only
// the link in cfg; the seed and the run's attachments come from o.
// Scenario configurations are compile-time constants, so a validation
// failure is a programming error and panics exactly like network.New would.
func (o Opts) emulate(cfg network.Config, specs ...network.FlowSpec) *network.Result {
	cfg.Seed, cfg.Probe, cfg.Guard, cfg.Ctx, cfg.Telemetry = o.Seed, o.Probe, o.Guard, o.Ctx, o.Telemetry
	res, err := o.Session.Run(cfg, o.Duration, specs...)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// Registry lists all scenarios by ID for the CLI: the flow-set rows, and
// the three that need a knob the grammar does not have — algo1's Rm and A
// and the ablation's AIAD and per-ACK switches (CCA parameters), and
// Reno's ECN reaction with a RED marker on the link.
var Registry = registry()

func registry() map[string]func(Opts) *Result {
	reg := map[string]func(Opts) *Result{
		"algo1-fair":     algo1Fairness,
		"algo1-ablation": algo1Ablation,
		"ecn-fairness":   ecnAvoidsStarvation,
	}
	for name, r := range rows {
		reg[name] = r.run
	}
	return reg
}

// Names returns the scenario IDs sorted.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
