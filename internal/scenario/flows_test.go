package scenario

import (
	"strings"
	"testing"
	"time"

	"starvation/internal/endpoint"
	"starvation/internal/netem/faults"
	"starvation/internal/units"
)

func TestParseFlowsGroups(t *testing.T) {
	specs, err := parseFlows(
		"vegas*3;reno*2:rm=80ms,cohort=slow,start=1s,stagger=100ms;copa:loss=0.01,ackagg=5ms",
		7, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("got %d specs, want 6", len(specs))
	}
	// Group 1: defaults.
	if specs[0].Name != "vegas-0" || specs[0].Cohort != "vegas" || specs[0].Rm != defaultFlowRm {
		t.Errorf("spec 0: %+v", specs[0])
	}
	// Group 2: rm/cohort/start/stagger.
	for k, want := range []time.Duration{time.Second, 1100 * time.Millisecond} {
		s := specs[3+k]
		if s.Rm != 80*time.Millisecond || s.Cohort != "slow" || s.StartAt != want {
			t.Errorf("spec %d: rm=%v cohort=%q start=%v (want 80ms/slow/%v)", 3+k, s.Rm, s.Cohort, s.StartAt, want)
		}
	}
	// Group 3: loss + ackagg.
	last := specs[5]
	if last.LossProb != 0.01 || last.Ack.AggregatePeriod != 5*time.Millisecond {
		t.Errorf("spec 5: %+v", last)
	}
	// Every flow needs its own algorithm instance.
	for i := range specs {
		for j := i + 1; j < len(specs); j++ {
			if specs[i].Alg == specs[j].Alg {
				t.Fatalf("specs %d and %d share a CCA instance", i, j)
			}
		}
	}
}

// TestParseFlowsGE: ge= gives every flow of its group the Gilbert–Elliott
// chain it spells, the Good state's drop probability defaulting to 0, and
// leaves the other groups without a gate.
func TestParseFlowsGE(t *testing.T) {
	specs, err := parseFlows("allegro:ge=0.008/0.2/0.5;reno*2:ge=0.01/0.3/1/0.001,loss=0.01;vegas", 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []*faults.GEConfig{
		{PGoodToBad: 0.008, PBadToGood: 0.2, PDropBad: 0.5},
		{PGoodToBad: 0.01, PBadToGood: 0.3, PDropBad: 1, PDropGood: 0.001},
		{PGoodToBad: 0.01, PBadToGood: 0.3, PDropBad: 1, PDropGood: 0.001},
		nil,
	}
	for i, w := range want {
		if got := specs[i].GE; (got == nil) != (w == nil) || got != nil && *got != *w {
			t.Errorf("flow %d: GE %+v, want %+v", i, got, w)
		}
	}
	if specs[1].LossProb != 0.01 {
		t.Errorf("flow 1: loss %g beside ge=, want 0.01", specs[1].LossProb)
	}
}

func TestParseFlowsDeterministic(t *testing.T) {
	// Same spec + seed → same names, starts, paths (algorithms are fresh
	// instances but derived from the same per-flow seeds).
	a, err := parseFlows("vegas*4:jitter=uniform:2ms;reno*4", 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseFlows("vegas*4:jitter=uniform:2ms;reno*4", 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].StartAt != b[i].StartAt {
			t.Errorf("flow %d not reproducible: %+v vs %+v", i, a[i], b[i])
		}
		if (a[i].FwdJitter == nil) != (b[i].FwdJitter == nil) {
			t.Errorf("flow %d jitter presence differs", i)
		}
	}
}

func TestParseFlowsErrors(t *testing.T) {
	cases := []string{
		"",                             // empty clause
		"vegas;;reno",                  // empty group
		"nosuchcca",                    // unknown CCA
		"vegas*0",                      // count below 1
		"vegas*x",                      // malformed count
		"vegas*5000",                   // over the population cap
		"vegas*3000;reno*3000",         // cumulative cap
		"vegas:rm=0s",                  // non-positive rm
		"vegas:rm=nope",                // malformed duration
		"vegas:start=-1s",              // negative start
		"vegas:loss=1.5",               // loss outside [0,1)
		"vegas:loss=-0.1",              // negative loss
		"vegas:jitter=weird:1ms",       // unknown jitter kind
		"vegas:path=a",                 // malformed path
		"vegas:path=-1",                // negative link index
		"vegas:cohort=",                // empty cohort
		"vegas:color=red",              // unknown key
		"vegas:rm",                     // option without '='
		"vegas:jitter=dip:1ms/10s",     // dip missing its width
		"vegas:jitter=dip:-1ms/10s/0s", // negative dip
		"vegas:jitter=step:10ms",       // step missing its start
		"vegas:jitter=step:10ms/-1s",   // negative step start
		"reno:delack=4",                // delack missing its timeout
		"reno:delack=4/0s",             // zero delack timeout
		"reno:delack=4/-200ms",         // negative delack timeout
		"reno:delack=0/200ms",          // delack count below 1
		"reno:delack=x/200ms",          // malformed delack count
		"allegro:ge=0.008/0.2",         // ge with too few fields
		"allegro:ge=0.008/0.2/0.5/0/1", // ge with too many fields
		"allegro:ge=0.008/x/0.5",       // non-number ge probability
		"allegro:ge=0.008/0.2/1.5",     // ge probability above 1
		"allegro:ge=-0.1/0.2/0.5",      // negative ge probability
		"allegro:ge=0.01/0/0.5",        // ge chain absorbed in its Bad state
	}
	for _, spec := range cases {
		if _, err := parseFlows(spec, 1, 0, nil); err == nil {
			t.Errorf("parseFlows(%q) accepted", spec)
		}
	}
}

func TestParseTopology(t *testing.T) {
	rate, buf := units.Mbps(20), 64*endpoint.DefaultMSS

	single, err := parseTopology("single", rate, buf)
	if err != nil || single.Links != nil || single.Bottleneck != 0 {
		t.Fatalf("single: %+v, %v", single, err)
	}
	if dflt, err := parseTopology("", rate, buf); err != nil || dflt.Kind != "single" {
		t.Fatalf("empty spec should mean single: %+v, %v", dflt, err)
	}

	pl, err := parseTopology("parkinglot:3", rate, buf)
	if err != nil || len(pl.Links) != 3 || pl.Bottleneck != 0 {
		t.Fatalf("parkinglot: %+v, %v", pl, err)
	}
	if pl.Path(5) != nil {
		t.Error("parking-lot default path should be nil (full chain)")
	}

	fi, err := parseTopology("fanin:4", rate, buf)
	if err != nil || len(fi.Links) != 5 || fi.Bottleneck != 4 {
		t.Fatalf("fanin: %+v, %v", fi, err)
	}
	if fi.Links[4].Rate != rate || fi.Links[0].Rate != rate*fanInAccessFactor {
		t.Errorf("fanin rates: uplink %v, access %v", fi.Links[4].Rate, fi.Links[0].Rate)
	}
	for i := 0; i < 8; i++ {
		want := []int{i % 4, 4}
		got := fi.Path(i)
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("fanin path(%d) = %v, want %v", i, got, want)
		}
	}

	for _, spec := range []string{
		"ring:3", "single:2", "parkinglot", "parkinglot:0", "parkinglot:x",
		"fanin", "fanin:-1", "parkinglot:9999", "fanin:9999",
	} {
		if _, err := parseTopology(spec, rate, buf); err == nil {
			t.Errorf("parseTopology(%q) accepted", spec)
		}
	}
}

func TestParseFlowsTopologyPaths(t *testing.T) {
	topo, err := parseTopology("fanin:2", units.Mbps(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := parseFlows("vegas*4;reno:path=0/2", 1, 0, topo)
	if err != nil {
		t.Fatal(err)
	}
	// Auto-assigned fan-in paths round-robin across access links.
	for i := 0; i < 4; i++ {
		if got := specs[i].Path; len(got) != 2 || got[0] != i%2 || got[1] != 2 {
			t.Errorf("flow %d path = %v", i, got)
		}
	}
	// Explicit path= wins over the topology default.
	if got := specs[4].Path; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("explicit path = %v, want [0 2]", got)
	}
}

func TestParseFlowsUnknownCCAListsKnown(t *testing.T) {
	_, err := parseFlows("nosuchcca*2", 1, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "vegas") {
		t.Errorf("error should list known CCAs, got: %v", err)
	}
}
