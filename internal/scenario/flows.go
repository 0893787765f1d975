package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"starvation/internal/cca"
	"starvation/internal/endpoint"
	"starvation/internal/netem/faults"
	"starvation/internal/netem/jitter"
	"starvation/internal/network"
	"starvation/internal/rng"
	"starvation/internal/units"
)

// maxPopulationFlows bounds the flow count a -flows clause may request.
// Population experiments at a few thousand flows are the intended scale;
// the cap exists so a typo (or a fuzzer) cannot ask for a billion senders.
const maxPopulationFlows = 4096

// defaultFlowRm is the propagation RTT a flow group gets when its clause
// does not set rm=.
const defaultFlowRm = 40 * time.Millisecond

// parseFlows parses a population flow-set clause into concrete flow specs.
//
// Grammar (semicolon-separated groups):
//
//	<cca>[*<count>][:key=val[,key=val]...]
//
// Keys:
//
//	rm=<dur>          propagation RTT (default 40ms)
//	start=<dur>       start time of the group's first flow
//	stagger=<dur>     extra start delay per flow inside the group
//	jitter=<spec>     forward-path jitter, jitter.Parse grammar (kind:value)
//	loss=<p>          independent random loss probability in [0, 1)
//	ge=<g2b>/<b2g>/<dropBad>[/<dropGood>]
//	                  Gilbert–Elliott bursty loss: per-packet Good→Bad and
//	                  Bad→Good transition probabilities and the drop
//	                  probability in each state (Good defaults to 0), all
//	                  in [0, 1]
//	ackagg=<dur>      receiver ACK aggregation period
//	delack=<n>/<dur>  receiver delayed ACKs: one per n packets (n >= 1),
//	                  none held longer than dur (> 0)
//	path=<i/j/..>     link indices the group traverses (topology-dependent)
//	cohort=<name>     cohort label (default: the CCA name)
//
// Example: "vegas*8;copa*8:rm=80ms,cohort=copa-long;reno*2:loss=0.01,ge=0.008/0.2/0.5".
//
// Each flow gets its own CCA instance and rng seeded from seed and the
// flow's global index (flowSeeds; stride selects the formula), so group
// order — not group internals — determines the realization. topo, when
// non-nil, supplies default per-flow paths (fan-in assignment); explicit
// path= wins.
func parseFlows(spec string, seed, stride int64, topo *parsedTopology) ([]network.FlowSpec, error) {
	groups := strings.Split(spec, ";")
	var specs []network.FlowSpec
	for gi, g := range groups {
		g = strings.TrimSpace(g)
		if g == "" {
			return nil, fmt.Errorf("flows: group %d is empty", gi)
		}
		head, opts, _ := strings.Cut(g, ":")
		name, countStr, hasCount := strings.Cut(head, "*")
		name = strings.TrimSpace(name)
		count := 1
		if hasCount {
			n, err := strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil {
				return nil, fmt.Errorf("flows: group %q: bad count %q", g, countStr)
			}
			count = n
		}
		if count < 1 || count > maxPopulationFlows {
			return nil, fmt.Errorf("flows: group %q: count %d out of [1, %d]", g, count, maxPopulationFlows)
		}
		if len(specs)+count > maxPopulationFlows {
			return nil, fmt.Errorf("flows: population exceeds %d flows", maxPopulationFlows)
		}
		fac := cca.Lookup(name)
		if fac == nil {
			return nil, fmt.Errorf("flows: unknown CCA %q (known: %s)", name, strings.Join(cca.Names(), ", "))
		}

		base := network.FlowSpec{Rm: defaultFlowRm, Cohort: name}
		var start, stagger time.Duration
		var jitterSpec string
		if opts != "" {
			for _, kv := range strings.Split(opts, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("flows: group %q: option %q: want key=val", g, kv)
				}
				key, val = strings.TrimSpace(key), strings.TrimSpace(val)
				var err error
				switch key {
				case "rm":
					base.Rm, err = parsePositiveDuration(val)
				case "start":
					start, err = parseNonNegativeDuration(val)
				case "stagger":
					stagger, err = parseNonNegativeDuration(val)
				case "jitter":
					// Validated here, instantiated per flow below (policies
					// are stateful and carry per-flow rngs).
					jitterSpec = val
					_, err = jitter.Parse(val, rng.New(1))
				case "loss":
					base.LossProb, err = strconv.ParseFloat(val, 64)
					if err == nil && !(base.LossProb >= 0 && base.LossProb < 1) { // NaN fails too
						err = fmt.Errorf("loss %v outside [0, 1)", base.LossProb)
					}
				case "ge":
					base.GE, err = parseGE(val)
				case "ackagg":
					base.Ack.AggregatePeriod, err = parseNonNegativeDuration(val)
				case "delack":
					base.Ack.DelayCount, base.Ack.DelayTimeout, err = parseDelack(val)
				case "path":
					base.Path, err = parsePath(val)
				case "cohort":
					if val == "" {
						err = fmt.Errorf("empty cohort label")
					}
					base.Cohort = val
				default:
					err = fmt.Errorf("unknown key (rm, start, stagger, jitter, loss, ge, ackagg, delack, path, cohort)")
				}
				if err != nil {
					return nil, fmt.Errorf("flows: group %q: %s=%s: %v", g, key, val, err)
				}
			}
		}
		for k := 0; k < count; k++ {
			i := len(specs)
			f := base
			f.Name = fmt.Sprintf("%s-%d", name, i)
			f.StartAt = start + time.Duration(k)*stagger
			if f.Path == nil && topo != nil {
				f.Path = topo.Path(i)
			}
			// The CCA's rng and any jitter rng are functions of (seed, i)
			// alone, so editing one group never perturbs flows outside it.
			ccaSeed, jitterSeed := flowSeeds(seed, stride, i)
			f.Alg = fac(endpoint.DefaultMSS, rng.New(ccaSeed))
			if jitterSpec != "" {
				pol, err := jitter.Parse(jitterSpec, rng.New(jitterSeed))
				if err != nil {
					return nil, fmt.Errorf("flows: group %q: jitter: %v", g, err)
				}
				f.FwdJitter = pol
			}
			specs = append(specs, f)
		}
	}
	return specs, nil
}

// flowSeeds returns flow i's CCA and forward-jitter seeds. Stride 0
// derives them, one stream per consumer (rng.Derive). A non-zero stride
// keeps the formula the randomized §5 rows were published under,
// seed·stride + i + 1 and that plus 1000, until their claims are checked
// across seeds and they can move to derived seeds; the grammar cannot
// select it.
func flowSeeds(seed, stride int64, i int) (cca, fwdJitter int64) {
	if stride == 0 {
		return rng.Derive(seed, i, rng.CCA), rng.Derive(seed, i, rng.FwdJitter)
	}
	s := seed*stride + int64(i) + 1
	return s, s + 1000
}

// parseDelack parses a delack value, "<count>/<timeout>".
func parseDelack(val string) (int, time.Duration, error) {
	countStr, timeoutStr, ok := strings.Cut(val, "/")
	if !ok {
		return 0, 0, fmt.Errorf("want <count>/<timeout>")
	}
	n, err := strconv.Atoi(countStr)
	if err != nil {
		return 0, 0, fmt.Errorf("bad count %q", countStr)
	}
	if n < 1 {
		return 0, 0, fmt.Errorf("count %d below 1", n)
	}
	d, err := parsePositiveDuration(timeoutStr)
	return n, d, err
}

// parseGE parses a ge value, "<g2b>/<b2g>/<dropBad>[/<dropGood>]", into a
// validated Gilbert–Elliott chain.
func parseGE(val string) (*faults.GEConfig, error) {
	parts := strings.Split(val, "/")
	if len(parts) < 3 || len(parts) > 4 {
		return nil, fmt.Errorf("want <g2b>/<b2g>/<dropBad>[/<dropGood>], got %d fields", len(parts))
	}
	var p [4]float64
	for i, s := range parts {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad probability %q", s)
		}
		p[i] = v
	}
	ge := &faults.GEConfig{PGoodToBad: p[0], PBadToGood: p[1], PDropBad: p[2], PDropGood: p[3]}
	return ge, ge.Validate()
}

// parsedTopology is a parsed -topology clause: the link list plus the policies
// that depend on its shape (bottleneck index, default path assignment).
type parsedTopology struct {
	// Kind is "single", "parkinglot" or "fanin".
	Kind string
	// Links is nil for "single": the network then uses the legacy
	// single-bottleneck wiring, which existing scenarios depend on being
	// bit-identical.
	Links []network.LinkSpec
	// Bottleneck is the index of the link reported as the bottleneck.
	Bottleneck int
	fanN       int
}

// fanInAccessFactor over-provisions fan-in access links relative to the
// shared uplink so contention concentrates where the experiment wants it.
const fanInAccessFactor = 4

// defaultHopDelay separates consecutive links of a multi-hop topology.
const defaultHopDelay = time.Millisecond

// parseTopology parses a topology clause against the experiment's
// bottleneck parameters:
//
//	single          one shared FIFO (the paper's topology; the default)
//	parkinglot:<n>  n rate/buffer bottlenecks in series; flows default to
//	                the full chain, cross traffic pins path=<hop>
//	fanin:<n>       n access links (4x rate, unbuffered) into one shared
//	                rate/buffer uplink; flows are assigned access links
//	                round-robin
func parseTopology(spec string, rate units.Rate, bufferBytes int) (*parsedTopology, error) {
	kind, arg, hasArg := strings.Cut(spec, ":")
	n := 0
	if hasArg {
		v, err := strconv.Atoi(arg)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("topology %q: bad count %q", spec, arg)
		}
		n = v
	}
	switch kind {
	case "", "single":
		if hasArg {
			return nil, fmt.Errorf("topology %q: single takes no argument", spec)
		}
		return &parsedTopology{Kind: "single"}, nil
	case "parkinglot":
		if !hasArg {
			return nil, fmt.Errorf("topology %q: want parkinglot:<hops>", spec)
		}
		if n > maxTopologyLinks {
			return nil, fmt.Errorf("topology %q: %d hops exceeds %d", spec, n, maxTopologyLinks)
		}
		return &parsedTopology{
			Kind:  "parkinglot",
			Links: network.ParkingLot(n, rate, bufferBytes, defaultHopDelay),
		}, nil
	case "fanin":
		if !hasArg {
			return nil, fmt.Errorf("topology %q: want fanin:<access-links>", spec)
		}
		if n > maxTopologyLinks {
			return nil, fmt.Errorf("topology %q: %d access links exceeds %d", spec, n, maxTopologyLinks)
		}
		return &parsedTopology{
			Kind:       "fanin",
			Links:      network.FanIn(n, rate*fanInAccessFactor, 0, defaultHopDelay, rate, bufferBytes),
			Bottleneck: n,
			fanN:       n,
		}, nil
	default:
		return nil, fmt.Errorf("unknown topology %q (single, parkinglot:<n>, fanin:<n>)", kind)
	}
}

// maxTopologyLinks bounds generated link counts (a fuzz/typo guard, far
// above any experiment here).
const maxTopologyLinks = 256

// Path returns the topology's default path for flow i, nil when the flow
// should take every link in order (single bottleneck, parking-lot chain).
func (t *parsedTopology) Path(i int) []int {
	if t.Kind == "fanin" {
		return network.FanInPath(i, t.fanN)
	}
	return nil
}

// parsePath parses slash-separated link indices, e.g. "1" or "0/2".
func parsePath(val string) ([]int, error) {
	parts := strings.Split(val, "/")
	path := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad link index %q", p)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative link index %d", v)
		}
		path[i] = v
	}
	return path, nil
}

func parsePositiveDuration(val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("duration %v not positive", d)
	}
	return d, nil
}

func parseNonNegativeDuration(val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("duration %v negative", d)
	}
	return d, nil
}
