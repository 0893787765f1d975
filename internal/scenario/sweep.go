package scenario

import (
	"context"
	"fmt"

	"starvation/internal/network"
	"starvation/internal/runner"
)

// SeedSweep runs one scenario across a set of seeds on a bounded worker
// pool and returns the results indexed like seeds. Starvation dynamics
// are chaotic — the paper's own testbed realizations vary — so sweeps are
// how the qualitative claims are checked; every seed is an independent
// simulator, so the result set is identical at any jobs value.
//
// base supplies everything but the seed (and, per worker, the context).
// base.Probe is shared across runs: leave it nil when jobs > 1, since
// event-stream writers are not safe for interleaved runs. Every seed runs
// through a session borrowed from a pool, so the sweep wires each network
// shape once per concurrent worker and reconfigures it per seed — the
// results are bit-identical to one-shot runs at any jobs value.
// base.Session, when set, is one of the pool's sessions: one seed at a
// time owns it, so it is safe at any jobs value.
//
// jobs is the worker count: 0 selects GOMAXPROCS, 1 runs the seeds
// strictly sequentially. The returned error is non-nil only for an
// unknown scenario, a shared probe, or a cancelled context.
func SeedSweep(ctx context.Context, name string, seeds []int64, jobs int, base Opts) ([]*Result, error) {
	fn, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q", name)
	}
	if base.Probe != nil && jobs > 1 {
		return nil, fmt.Errorf("scenario: SeedSweep with jobs > 1 cannot share a probe")
	}
	results := make([]*Result, len(seeds))
	pool := network.NewSessionPool()
	pool.Put(base.Session)
	err := runner.ForEach(ctx, jobs, len(seeds), func(ctx context.Context, i int) error {
		o := base
		o.Seed = seeds[i]
		o.Ctx = ctx
		o.Session = pool.Get()
		defer pool.Put(o.Session)
		results[i] = fn(o)
		return ctx.Err()
	})
	return results, err
}
