package jitter

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Parse turns a "kind:value" spec into a jitter policy. Kinds: const,
// uniform, aggregate (period), spike (len/period), burst (Gilbert-Elliott
// bad-state delay), dip (base/at/width: every packet held base, except
// during [at, at+width); width 0 selects base + 2 ms) and step (d/at:
// nothing before at, then d). Policies are stateful: call Parse once per
// flow and direction, with that flow's own rng (used by the randomized
// kinds).
func Parse(spec string, rng *rand.Rand) (Policy, error) {
	kind, valStr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("jitter spec %q: want kind:value (e.g. uniform:5ms)", spec)
	}
	switch kind {
	case "const":
		d, err := parseDelay(valStr)
		if err != nil {
			return nil, err
		}
		return Constant{D: d}, nil
	case "uniform":
		d, err := parseDelay(valStr)
		if err != nil {
			return nil, err
		}
		return &Uniform{Max: d, Rng: rng}, nil
	case "aggregate":
		d, err := parseDelay(valStr)
		if err != nil {
			return nil, err
		}
		return PeriodicAggregation{Period: d}, nil
	case "spike":
		d, err := parseDelays(kind, valStr, "<len>/<period>")
		if err != nil {
			return nil, err
		}
		return PeriodicSpike{Period: d[1], SpikeLen: d[0]}, nil
	case "burst":
		d, err := parseDelay(valStr)
		if err != nil {
			return nil, err
		}
		return &GilbertElliott{
			PGoodToBad: 0.02, PBadToGood: 0.2, BadDelay: d, Rng: rng,
		}, nil
	case "dip":
		d, err := parseDelays(kind, valStr, "<base>/<at>/<width>")
		if err != nil {
			return nil, err
		}
		return &oneShotDip{Base: d[0], At: d[1], Width: d[2]}, nil
	case "step":
		d, err := parseDelays(kind, valStr, "<d>/<at>")
		if err != nil {
			return nil, err
		}
		return step{D: d[0], At: d[1]}, nil
	default:
		return nil, fmt.Errorf("unknown jitter kind %q (const, uniform, aggregate, spike, burst, dip, step)", kind)
	}
}

// parseDelay parses a jitter magnitude: a non-negative duration. Negative
// delays would violate the Policy contract (delays live in [0, Bound]).
func parseDelay(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative jitter %v", d)
	}
	return d, nil
}

// parseDelays parses the slash-separated fields of a kind whose value
// has the given form, each one a parseDelay magnitude.
func parseDelays(kind, val, form string) ([]time.Duration, error) {
	parts := strings.Split(val, "/")
	if len(parts) != strings.Count(form, "/")+1 {
		return nil, fmt.Errorf("%s spec: want %s:%s", kind, kind, form)
	}
	out := make([]time.Duration, len(parts))
	for i, p := range parts {
		d, err := parseDelay(p)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}
