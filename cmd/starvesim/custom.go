package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"starvation/internal/cca"
	"starvation/internal/endpoint"
	"starvation/internal/guard"
	"starvation/internal/netem/faults"
	"starvation/internal/netem/jitter"
	"starvation/internal/network"
	"starvation/internal/obs"
	"starvation/internal/rng"
	"starvation/internal/units"
)

// customFlags describe the freeform experiment builder: any registered CCA
// pair, a bottleneck, per-flow jitter, loss, and ACK policies.
type customFlags struct {
	cca1, cca2   string
	rateMbps     float64
	bufferPkts   int
	rm1, rm2     time.Duration
	jitterSpec   string // applied to flow 1: kind:value, e.g. "uniform:5ms"
	loss1        float64
	faultsSpec   string        // flow 0 impairments + link schedule, see faults.ParseProfile
	ackAggregate time.Duration // flow 1 ACK aggregation period
	duration     time.Duration
	seed         int64
	guard        *guard.Options           // nil disables the run-guard layer
	telemetry    *network.TelemetryConfig // nil disables the flight recorder
	ctx          context.Context          // nil runs uninterruptible
}

// runCustom assembles and runs the freeform scenario, streaming events to
// probe if non-nil.
func runCustom(f customFlags, probe obs.Probe) (*network.Result, error) {
	if f.cca1 == "" {
		return nil, fmt.Errorf("custom mode needs -cca")
	}
	// Flow i's generators are seeded as the -flows parser seeds them, so
	// a freeform run and the equivalent -flows set realize identically.
	mk := func(name string, flow int) (cca.Algorithm, error) {
		fac := cca.Lookup(name)
		if fac == nil {
			return nil, fmt.Errorf("unknown CCA %q (known: %s)",
				name, strings.Join(cca.Names(), ", "))
		}
		return fac(endpoint.DefaultMSS, rng.New(rng.Derive(f.seed, flow, rng.CCA))), nil
	}

	alg1, err := mk(f.cca1, 0)
	if err != nil {
		return nil, err
	}
	spec1 := network.FlowSpec{Name: f.cca1 + "-0", Alg: alg1, Rm: f.rm1, LossProb: f.loss1}
	if f.jitterSpec != "" {
		pol, err := jitter.Parse(f.jitterSpec, rng.New(rng.Derive(f.seed, 0, rng.FwdJitter)))
		if err != nil {
			return nil, err
		}
		spec1.FwdJitter = pol
	}
	if f.ackAggregate > 0 {
		spec1.Ack = endpoint.AckConfig{AggregatePeriod: f.ackAggregate}
	}
	var rateSched *faults.RateSchedule
	if f.faultsSpec != "" {
		prof, err := faults.ParseProfile(f.faultsSpec)
		if err != nil {
			return nil, err
		}
		if !prof.Flow.Empty() {
			spec1.Faults = &prof.Flow
		}
		rateSched = prof.Link
	}

	specs := []network.FlowSpec{spec1}
	if f.cca2 != "" {
		alg2, err := mk(f.cca2, 1)
		if err != nil {
			return nil, err
		}
		specs = append(specs, network.FlowSpec{Name: f.cca2 + "-1", Alg: alg2, Rm: f.rm2})
	}

	cfg := network.Config{
		Rate:         units.Mbps(f.rateMbps),
		BufferBytes:  f.bufferPkts * endpoint.DefaultMSS,
		RateSchedule: rateSched,
		Guard:        f.guard,
		Seed:         f.seed,
		Probe:        probe,
		Telemetry:    f.telemetry,
		Ctx:          f.ctx,
	}
	// NewChecked, not New: a malformed CLI config is a usage error the
	// caller reports in one line (exit 2), not a panic trace.
	n, err := network.NewChecked(cfg, specs...)
	if err != nil {
		return nil, err
	}
	return n.Run(f.duration), nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	stopProfiles()
	os.Exit(1)
}

// usagef reports a malformed configuration (bad flag value, invalid
// network spec) with the conventional usage-error status.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	stopProfiles()
	os.Exit(2)
}
