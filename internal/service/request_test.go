package service

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"starvation/internal/scenario"
)

// TestSweepValidatesOnce checks a sweep's spec, validated once for its
// first seed, yields what validating every seed as an explicit job does:
// the same 400 text for an invalid spec (naming the first seed's job), and
// the same expanded jobs — names, specs, durations — for a valid one.
func TestSweepValidatesOnce(t *testing.T) {
	// perSeed is the sweep written out as one explicit job per seed, each
	// validated on its own.
	perSeed := func(sw SweepRequest) BatchRequest {
		base, prefix := sw.SeedFrom, sw.Name
		if base == 0 {
			base = scenario.ReferenceSeed
		}
		if prefix == "" {
			prefix = "seed"
		}
		var req BatchRequest
		for k := 0; k < sw.Seeds; k++ {
			jr := sw.JobRequest
			jr.Seed = base + int64(k)
			jr.Name = fmt.Sprintf("%s-%d", prefix, jr.Seed)
			req.Jobs = append(req.Jobs, jr)
		}
		return req
	}
	mk := func(name, flows, topology string, from int64, seeds int, dur float64) SweepRequest {
		sw := SweepRequest{SeedFrom: from, Seeds: seeds}
		sw.Name, sw.Flows, sw.Topology, sw.DurationSec = name, flows, topology, dur
		return sw
	}
	invalid := []SweepRequest{
		mk("", "nosuchcca*2", "", 0, 3, 0),
		mk("run", "reno*2:bogus=1", "", 41, 4, 0),
		mk("", "reno*2;", "", 7, 2, 0.05),
		mk("", "reno*2", "ring:4", 0, 3, 0),
		mk("", "reno*2", "parkinglot:x", -1, 3, 0),
	}
	for _, sw := range invalid {
		_, got := BatchRequest{Sweep: &sw}.expand()
		_, want := perSeed(sw).expand()
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("sweep %+v: error %v, want per-seed %v", sw, got, want)
		} else if !strings.HasPrefix(got.Error(), `job "`) {
			t.Errorf("sweep %+v: error %q does not name its job", sw, got)
		}
	}
	valid := []SweepRequest{
		mk("", "reno*2", "", 0, 3, 0),
		mk("run", "vegas*4;reno*4", "", 41, 8, 3),
		mk("", "reno*2;cubic*2", "parkinglot:2", -1, 3, 0.05),
	}
	for _, sw := range valid {
		got, err := BatchRequest{Sweep: &sw}.expand()
		if err != nil {
			t.Fatalf("sweep %+v: %v", sw, err)
		}
		want, err := perSeed(sw).expand()
		if err != nil {
			t.Fatalf("sweep %+v written per seed: %v", sw, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sweep %+v expanded to\n%+v\nwant\n%+v", sw, got, want)
		}
	}
}
