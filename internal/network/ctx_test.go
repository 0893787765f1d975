package network

import (
	"context"
	"testing"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/units"
)

// TestConfigCtxCancelsRun checks Config.Ctx reaches the event loop: a
// run under an expiring context halts early (virtual time frozen short
// of the horizon) instead of simulating to completion — the mechanism
// that lets a batch deadline actually stop abandoned work.
func TestConfigCtxCancelsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := New(
		Config{Rate: units.Mbps(12), Seed: 1, Ctx: ctx},
		FlowSpec{Name: "probe", Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond},
	)
	// Cancel from inside the run so the test is deterministic: the
	// sampler fires every 100 ms of virtual time.
	fired := 0
	var arm func()
	arm = func() {
		fired++
		if fired == 3 {
			cancel()
			return
		}
		n.Sim.After(100*time.Millisecond, arm)
	}
	n.Sim.After(0, arm)

	res := n.Run(time.Hour)
	if ctx.Err() == nil || n.Sim.Pending() == 0 {
		t.Fatalf("run completed despite cancellation")
	}
	// collect() reports the requested duration; the real signal is that
	// the flow only progressed for the ~300 ms before the cancel.
	if got := res.Flows[0].Stat.AckedBytes; got > 10<<20 {
		t.Errorf("flow acked %d bytes; an hour-long run clearly was not cancelled", got)
	}
}

// TestConfigCtxObservationOnly checks a live context never perturbs a
// realization: fixed-seed runs with and without a context produce
// identical flow results.
func TestConfigCtxObservationOnly(t *testing.T) {
	run := func(ctx context.Context) *Result {
		n := New(
			Config{Rate: units.Mbps(24), Seed: 7, Ctx: ctx},
			FlowSpec{Name: "a", Alg: vegas.New(vegas.Config{}), Rm: 30 * time.Millisecond},
			FlowSpec{Name: "b", Alg: vegas.New(vegas.Config{}), Rm: 60 * time.Millisecond},
		)
		return n.Run(20 * time.Second)
	}
	bare := run(nil)
	ctx := run(context.Background())
	for i := range bare.Flows {
		if bare.Flows[i].Stat != ctx.Flows[i].Stat {
			t.Errorf("flow %d stats differ with a context installed:\n bare %+v\n ctx  %+v",
				i, bare.Flows[i].Stat, ctx.Flows[i].Stat)
		}
	}
	if bare.Obs.Global != ctx.Obs.Global {
		t.Errorf("global counters differ with a context installed")
	}
}
