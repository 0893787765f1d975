package scenario

import (
	"testing"

	"starvation/internal/endpoint"
	"starvation/internal/network"
	"starvation/internal/units"
)

// FuzzParseFlows throws arbitrary clause strings at the -flows/-topology
// parsers and checks the contract: no panic, and everything accepted is
// actually runnable — population within the cap, every spec valid, and
// valid against the parsed topology (paths in range, no repeats), checked
// with the same validation the network constructor applies.
func FuzzParseFlows(f *testing.F) {
	f.Add("vegas", "single")
	f.Add("vegas*8;reno*8", "single")
	f.Add("vegas*8:rm=80ms,cohort=slow;copa:loss=0.01", "")
	f.Add("reno*4:start=1s,stagger=100ms,jitter=uniform:5ms", "parkinglot:3")
	f.Add("vegas*6:cohort=long;reno*2:path=1,cohort=cross", "parkinglot:3")
	f.Add("vegas*8:ackagg=5ms;bbr*8", "fanin:4")
	f.Add("vegas:path=0/2", "fanin:2")
	f.Add("vegas*4096", "single")
	f.Add("vegas:rm=-1s", "single")
	f.Add("vegas:jitter=spike:2ms/50ms", "fanin:1")
	f.Add("copa:rm=59ms,jitter=dip:1ms/10s/500ms;copa:rm=59ms,jitter=const:1ms", "single")
	f.Add("reno*2:rm=120ms,delack=4/200ms;vegas:jitter=step:10ms/10s", "parkinglot:2")
	f.Add("cubic:delack=0/1ms;vegas:jitter=dip:1ms/2s", "")
	f.Add("allegro:rm=40ms,ge=0.008/0.2/0.5;allegro*2:ge=1/1/1/0,loss=0.02", "parkinglot:2")
	f.Add("vegas:loss=NaN", "single")
	f.Fuzz(func(t *testing.T, flowsSpec, topoSpec string) {
		topo, err := parseTopology(topoSpec, units.Mbps(10), 16*endpoint.DefaultMSS)
		if err != nil {
			return
		}
		if len(topo.Links) > maxTopologyLinks {
			t.Fatalf("topology %q: %d links above cap", topoSpec, len(topo.Links))
		}
		specs, err := parseFlows(flowsSpec, 1, 0, topo)
		if err != nil {
			return
		}
		if len(specs) == 0 || len(specs) > maxPopulationFlows {
			t.Fatalf("flows %q: accepted %d flows", flowsSpec, len(specs))
		}
		nLinks := len(topo.Links)
		if nLinks == 0 {
			nLinks = 1 // legacy single bottleneck
		}
		for i, s := range specs {
			// The spec on its own; its path is checked against the
			// topology below.
			alone := s
			alone.Path = nil
			if err := network.Validate(network.Config{Rate: units.Mbps(12)}, alone); err != nil {
				t.Fatalf("flows %q: accepted spec %d yet invalid: %v", flowsSpec, i, err)
			}
			if s.Alg == nil {
				t.Fatalf("flows %q: spec %d has no algorithm", flowsSpec, i)
			}
			if !(s.LossProb >= 0 && s.LossProb < 1) {
				t.Fatalf("flows %q: spec %d has loss %g outside [0, 1)", flowsSpec, i, s.LossProb)
			}
			// path= link indices are topology-dependent, so out-of-range
			// values surface at network construction, not parse time —
			// but the parser must never emit a malformed path itself
			// (negative or repeated indices).
			for _, j := range s.Path {
				if j < 0 {
					t.Fatalf("flows %q: spec %d has negative link index %d", flowsSpec, i, j)
				}
			}
			if s.Path == nil {
				continue
			}
			seen := map[int]bool{}
			for _, j := range s.Path {
				if seen[j] {
					t.Fatalf("flows %q: spec %d path %v revisits link %d", flowsSpec, i, s.Path, j)
				}
				seen[j] = true
			}
		}
		// Small accepted populations must construct: run the network
		// constructor's own validation end to end (bounded so the fuzzer
		// does not spend its budget building 4096-flow networks).
		if len(specs) <= 64 && pathsInRange(specs, nLinks) {
			cfg := network.Config{Links: topo.Links, Bottleneck: topo.Bottleneck}
			if topo.Links == nil {
				cfg.Rate = units.Mbps(10)
				cfg.BufferBytes = 16 * endpoint.DefaultMSS
			}
			if _, err := network.NewChecked(cfg, specs...); err != nil {
				t.Fatalf("flows %q / topo %q: parsed but unconstructable: %v", flowsSpec, topoSpec, err)
			}
		}
	})
}

func pathsInRange(specs []network.FlowSpec, nLinks int) bool {
	for _, s := range specs {
		for _, j := range s.Path {
			if j >= nLinks {
				return false
			}
		}
	}
	return true
}
