package network

import (
	"math"
	"reflect"
	"testing"
	"time"

	"starvation/internal/cca/reno"
	"starvation/internal/cca/vegas"
	"starvation/internal/endpoint"
	"starvation/internal/guard"
	"starvation/internal/units"
)

// TestExplicitSingleLinkMatchesLegacy pins the degenerate topology: one
// explicit LinkSpec must produce the same realization as the legacy
// single-bottleneck fields (same rates, buffers, seed).
func TestExplicitSingleLinkMatchesLegacy(t *testing.T) {
	specs := func() []FlowSpec {
		return []FlowSpec{
			{Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond},
			{Alg: reno.New(reno.Config{}), Rm: 80 * time.Millisecond, StartAt: 200 * time.Millisecond},
		}
	}
	legacy := New(Config{Rate: units.Mbps(24), BufferBytes: 32 * 1500, Seed: 3}, specs()...).Run(4 * time.Second)
	explicit := New(Config{
		Links: []LinkSpec{{Rate: units.Mbps(24), BufferBytes: 32 * 1500}},
		Seed:  3,
	}, specs()...).Run(4 * time.Second)
	for i := range legacy.Flows {
		lw, ew := legacy.Flows[i].Stat.AckedBytes, explicit.Flows[i].Stat.AckedBytes
		if lw != ew {
			t.Errorf("flow %d: acked bytes diverge: legacy %d, explicit single link %d", i, lw, ew)
		}
	}
	if legacy.Dropped != explicit.Dropped {
		t.Errorf("drops diverge: legacy %d, explicit %d", legacy.Dropped, explicit.Dropped)
	}
	if legacy.Obs.Global != explicit.Obs.Global {
		t.Errorf("global counters diverge:\nlegacy   %+v\nexplicit %+v", legacy.Obs.Global, explicit.Obs.Global)
	}
}

// runParkingLot wires two long flows over a 3-hop chain against one-hop
// cross traffic on the middle hop.
func runParkingLot(t *testing.T, guardOpts *guard.Options) *Result {
	t.Helper()
	n := New(Config{
		Links: ParkingLot(3, units.Mbps(20), 32*1500, 2*time.Millisecond),
		Seed:  5,
		Guard: guardOpts,
	},
		FlowSpec{Name: "long0", Cohort: "long", Alg: vegas.New(vegas.Config{}), Rm: 40 * time.Millisecond},
		FlowSpec{Name: "long1", Cohort: "long", Alg: reno.New(reno.Config{}), Rm: 60 * time.Millisecond},
		FlowSpec{Name: "cross", Cohort: "cross", Alg: reno.New(reno.Config{}), Rm: 20 * time.Millisecond, Path: []int{1}},
	)
	return n.Run(5 * time.Second)
}

// TestParkingLotConservation checks the multi-hop ledger: packets can rest
// between hops or drop mid-path, and every segment equation must still
// balance. The run-guard layer's end-of-run checks must also stay clean.
func TestParkingLotConservation(t *testing.T) {
	res := runParkingLot(t, &guard.Options{})
	if err := res.Ledger.Check(); err != nil {
		t.Fatalf("parking-lot ledger: %v", err)
	}
	if res.Guard == nil || !res.Guard.Ok() {
		t.Fatalf("guard report not clean: %v", res.Guard)
	}
	if len(res.Links) != 3 {
		t.Fatalf("want 3 link results, got %d", len(res.Links))
	}
	// The cross flow shares only hop1; long flows traverse all three. All
	// flows must make progress.
	for i, f := range res.Flows {
		if f.Stat.AckedBytes == 0 {
			t.Errorf("flow %d (%s) made no progress", i, f.Name)
		}
	}
	// Multi-link topologies expose per-link queue traces.
	for j, l := range res.Links {
		if l.Queue == nil || len(l.Queue.Points) == 0 {
			t.Errorf("link %d (%s): no queue trace", j, l.Name)
		}
	}
	// Cohort labels must flow through to the obs snapshot.
	cohorts := map[string]int{}
	for _, f := range res.Obs.Flows {
		cohorts[f.Cohort]++
	}
	if want := map[string]int{"cross": 1, "long": 2}; !reflect.DeepEqual(cohorts, want) {
		t.Errorf("flows per cohort = %v, want %v", cohorts, want)
	}
}

// TestFanInConservation checks the shared-uplink fan-in: flows enter on
// round-robin access links and contend at the uplink, where mid-path
// drops land in the DroppedMidPath ledger column.
func TestFanInConservation(t *testing.T) {
	links := FanIn(2, units.Mbps(40), 0, time.Millisecond, units.Mbps(12), 8*1500)
	specs := make([]FlowSpec, 4)
	for i := range specs {
		specs[i] = FlowSpec{
			Cohort: "vegas",
			Alg:    vegas.New(vegas.Config{}),
			Rm:     30 * time.Millisecond,
			Path:   FanInPath(i, 2),
		}
	}
	n := New(Config{Links: links, Bottleneck: 2, Seed: 9}, specs...)
	res := n.Run(5 * time.Second)
	if err := res.Ledger.Check(); err != nil {
		t.Fatalf("fan-in ledger: %v", err)
	}
	if res.LinkRate != units.Mbps(12) {
		t.Errorf("LinkRate should report the uplink: got %v", res.LinkRate)
	}
	// The tight uplink behind fat access links must shed load: those
	// drops are mid-path (hop 1) for every flow.
	var mid int64
	for _, fl := range res.Ledger.Flows {
		mid += fl.DroppedMidPath
		if fl.DroppedAtQueue != 0 {
			t.Errorf("flow %s: unexpected first-hop drop-tail %d (access links are unbuffered-infinite)", fl.Name, fl.DroppedAtQueue)
		}
	}
	if mid == 0 {
		t.Error("expected mid-path drops at the congested uplink, got none")
	}
	if res.Dropped != mid {
		t.Errorf("Result.Dropped (%d) should sum all link drops (%d)", res.Dropped, mid)
	}
}

// TestPathValidation covers the malformed-path diagnostics.
func TestPathValidation(t *testing.T) {
	links := ParkingLot(2, units.Mbps(10), 0, 0)
	base := FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 10 * time.Millisecond}
	for _, tc := range []struct {
		name string
		path []int
	}{
		{"out of range", []int{2}},
		{"revisit", []int{0, 1, 0}},
		{"empty non-nil", []int{}},
	} {
		spec := base
		spec.Path = tc.path
		if tc.path != nil && len(tc.path) == 0 {
			// validatePath distinguishes nil (default) from empty.
			if err := validatePath(tc.path, len(links)); err == nil {
				t.Errorf("%s: validatePath accepted %v", tc.name, tc.path)
			}
			continue
		}
		if _, err := NewChecked(Config{Links: links}, spec); err == nil {
			t.Errorf("%s: NewChecked accepted path %v", tc.name, tc.path)
		}
	}
	// Legacy fields and Links are mutually exclusive.
	if _, err := NewChecked(Config{Rate: units.Mbps(10), Links: links}, base); err == nil {
		t.Error("NewChecked accepted both legacy Rate and Links")
	}
	if _, err := NewChecked(Config{Rate: units.Mbps(10), Bottleneck: 1}, base); err == nil {
		t.Error("NewChecked accepted Bottleneck without Links")
	}
}

// TestRateValidation pins the rates a link may have, on the legacy
// bottleneck and in Links alike: one full-size segment must serialize in
// 1 ns to the largest time.Duration. Outside that range the link drains
// in zero time (the run never ends) or its departure time overflows.
func TestRateValidation(t *testing.T) {
	base := FlowSpec{Alg: vegas.New(vegas.Config{}), Rm: 10 * time.Millisecond}
	fastest := units.Rate(endpoint.DefaultMSS * 8 * 1e9) // 1 ns per segment
	for _, tc := range []struct {
		rate units.Rate
		ok   bool
	}{
		{units.Mbps(48), true},
		{fastest * 0.999, true},
		{fastest * 1.001, false},
		{1e-5, true},  // 1.2e9 s per segment
		{1e-6, false}, // 1.2e10 s: beyond time.Duration's ~292 years
		{0, false},
		{-1, false},
		{units.Rate(math.Inf(1)), false},
		{units.Rate(math.NaN()), false},
	} {
		for _, cfg := range []Config{{Rate: tc.rate}, {Links: ParkingLot(1, tc.rate, 0, 0)}} {
			if err := Validate(cfg, base); (err == nil) != tc.ok {
				t.Errorf("rate %g bit/s, links %v: Validate = %v, want ok %v", float64(tc.rate), cfg.Links != nil, err, tc.ok)
			}
		}
	}
}
