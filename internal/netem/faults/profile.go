package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"starvation/internal/units"
)

// Profile is the parsed form of a CLI fault profile: the per-flow
// impairment spec plus an optional link-level rate schedule.
type Profile struct {
	Flow Spec
	Link *RateSchedule
}

// ParseProfile parses a fault profile string of semicolon-separated
// clauses:
//
//	ge:pG2B,pB2G,pDropBad[,pDropGood]   Gilbert–Elliott bursty loss
//	reorder:p,delay                     bounded reordering (e.g. 0.02,8ms)
//	dup:p                               packet duplication
//	flap:period,downFor                 periodic link outage (e.g. 5s,200ms)
//	rate:at=mbps[,at=mbps...]           piecewise rate steps ("base" restores
//	                                    the configured rate)
//
// Example: "ge:0.008,0.2,0.5;reorder:0.02,8ms;flap:5s,200ms". flap and
// rate are mutually exclusive (both drive the one bottleneck).
func ParseProfile(spec string) (*Profile, error) {
	p := &Profile{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q is not kind:args", clause)
		}
		args := strings.Split(rest, ",")
		var err error
		switch kind {
		case "ge":
			err = p.parseGE(args)
		case "reorder":
			err = p.parseReorder(args)
		case "dup":
			err = p.parseDup(args)
		case "flap":
			err = p.parseFlap(args)
		case "rate":
			err = p.parseRate(args)
		default:
			err = fmt.Errorf("unknown clause kind %q (want ge, reorder, dup, flap, or rate)", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: %w", err)
		}
	}
	if err := p.Flow.Validate(); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	if err := p.Link.Validate(); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return p, nil
}

func (p *Profile) parseGE(args []string) error {
	if len(args) < 3 || len(args) > 4 {
		return fmt.Errorf("ge wants pG2B,pB2G,pDropBad[,pDropGood], got %d args", len(args))
	}
	vals := make([]float64, len(args))
	for i, a := range args {
		v, err := strconv.ParseFloat(strings.TrimSpace(a), 64)
		if err != nil {
			return fmt.Errorf("ge: bad probability %q", a)
		}
		vals[i] = v
	}
	cfg := &GEConfig{PGoodToBad: vals[0], PBadToGood: vals[1], PDropBad: vals[2]}
	if len(vals) == 4 {
		cfg.PDropGood = vals[3]
	}
	p.Flow.GE = cfg
	return nil
}

func (p *Profile) parseReorder(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("reorder wants p,delay, got %d args", len(args))
	}
	prob, err := strconv.ParseFloat(strings.TrimSpace(args[0]), 64)
	if err != nil {
		return fmt.Errorf("reorder: bad probability %q", args[0])
	}
	d, err := time.ParseDuration(strings.TrimSpace(args[1]))
	if err != nil {
		return fmt.Errorf("reorder: bad delay %q", args[1])
	}
	p.Flow.Reorder = &ReorderConfig{P: prob, Delay: d}
	return nil
}

func (p *Profile) parseDup(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("dup wants a single probability, got %d args", len(args))
	}
	prob, err := strconv.ParseFloat(strings.TrimSpace(args[0]), 64)
	if err != nil {
		return fmt.Errorf("dup: bad probability %q", args[0])
	}
	p.Flow.Duplicate = &DupConfig{P: prob}
	return nil
}

func (p *Profile) parseFlap(args []string) error {
	if p.Link != nil {
		return fmt.Errorf("flap: a rate schedule is already set (flap and rate are exclusive)")
	}
	if len(args) != 2 {
		return fmt.Errorf("flap wants period,downFor, got %d args", len(args))
	}
	period, err := time.ParseDuration(strings.TrimSpace(args[0]))
	if err != nil {
		return fmt.Errorf("flap: bad period %q", args[0])
	}
	down, err := time.ParseDuration(strings.TrimSpace(args[1]))
	if err != nil {
		return fmt.Errorf("flap: bad downFor %q", args[1])
	}
	if down <= 0 || down >= period {
		return fmt.Errorf("flap: downFor must be in (0, period) (got %v of %v)", down, period)
	}
	p.Link = flap(period, down)
	return nil
}

func (p *Profile) parseRate(args []string) error {
	if p.Link != nil {
		return fmt.Errorf("rate: a rate schedule is already set (flap and rate are exclusive)")
	}
	sched := &RateSchedule{}
	for _, a := range args {
		at, val, ok := strings.Cut(strings.TrimSpace(a), "=")
		if !ok {
			return fmt.Errorf("rate: step %q is not at=mbps", a)
		}
		t, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil {
			return fmt.Errorf("rate: bad step time %q", at)
		}
		var r units.Rate
		if strings.TrimSpace(val) == "base" {
			r = restore
		} else {
			mbps, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return fmt.Errorf("rate: bad rate %q (Mbit/s number or \"base\")", val)
			}
			if mbps < 0 {
				return fmt.Errorf("rate: negative rate %q", val)
			}
			r = units.Mbps(mbps)
		}
		sched.Steps = append(sched.Steps, RateStep{At: t, Rate: r})
	}
	p.Link = sched
	return nil
}
