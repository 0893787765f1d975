package scenario

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestPopulationSpecValidateStrings pins the shared error-string contract:
// the message Validate returns is byte-identical to what RunPopulation (and
// therefore the CLI's exit-2 path) fails with, because both front ends —
// shell and HTTP — surface the same text.
func TestPopulationSpecValidateStrings(t *testing.T) {
	cases := []struct {
		name string
		spec PopulationSpec
		want string
	}{
		{"empty flows", PopulationSpec{Flows: ""}, "flows: group 0 is empty"},
		{"unknown cca", PopulationSpec{Flows: "nosuchcca*4"}, "unknown CCA"},
		{"bad topology", PopulationSpec{Flows: "reno*2", Topology: "ring:4"}, `unknown topology "ring"`},
		{"bad count", PopulationSpec{Flows: "reno*0"}, "count"},
		{"bad key", PopulationSpec{Flows: "reno:wat=1"}, "wat"},
		{"too many flows", PopulationSpec{Flows: "reno*4096;vegas*2"}, "population exceeds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) accepted a bad spec", c.spec)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate error %q does not mention %q", err, c.want)
			}
			// The run itself must fail with the identical message.
			if _, rerr := c.spec.Run(); rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("Run error %v != Validate error %v", rerr, err)
			}
		})
	}

	good := PopulationSpec{Flows: "reno*2", Duration: 100 * time.Millisecond}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestPopulationSpecValidateAllocBytes bounds the heap bytes one Validate
// allocates. Validation builds every flow's CCA and its generator only to
// drop them, so a generator must cost nothing until drawn: each eager
// math/rand source is ~4.9 KB, which would put the eight-flow service spec
// near 47 KB and the 500-flow spec near 3 MB.
func TestPopulationSpecValidateAllocBytes(t *testing.T) {
	const calls = 50
	for _, c := range []struct {
		name     string
		spec     PopulationSpec
		maxBytes uint64
	}{
		{"service 8-flow", PopulationSpec{Flows: "vegas*4;reno*4", RateMbps: 12, BufferPkts: 200,
			Duration: 500 * time.Millisecond, Seed: 7}, 8 << 10},
		{"pop-mixed-500", PopulationSpec{Flows: "vegas*125:stagger=8ms;reno*125:stagger=8ms;" +
			"copa*125:stagger=8ms;bbr*125:stagger=8ms", RateMbps: 250, BufferPkts: 512,
			Duration: 8 * time.Second}, 1 << 20},
	} {
		if err := c.spec.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := c.spec.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / calls
		if per >= c.maxBytes {
			t.Errorf("%s: Validate allocates %d bytes per call, want < %d", c.name, per, c.maxBytes)
		}
		t.Logf("%s: %d bytes per Validate", c.name, per)
	}
}

// TestPopulationSpecDefaults: the zero value of every optional field
// selects the CLI's documented default.
func TestPopulationSpecDefaults(t *testing.T) {
	cfg, err := PopulationSpec{Flows: "reno*2"}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != ReferenceSeed {
		t.Fatalf("default seed %d, want %d", cfg.Seed, ReferenceSeed)
	}
	if cfg.Duration != defaultPopulationDuration {
		t.Fatalf("default duration %v, want %v", cfg.Duration, defaultPopulationDuration)
	}
	if cfg.Links != nil {
		t.Fatalf("default topology is not the single bottleneck")
	}
	if float64(cfg.Rate) != 48e6 {
		t.Fatalf("default rate %v, want 48 Mbit/s", cfg.Rate)
	}
}

// TestPopulationSpecKey: the cache identity is stable across calls, covers
// the realization-changing fields, and an omitted field keys the same as
// its explicit default (so CLI-style and service-style specs of the same
// experiment share cache entries).
func TestPopulationSpecKey(t *testing.T) {
	base := PopulationSpec{Flows: "vegas*2;reno*2"}
	if base.Key().String() != base.Key().String() {
		t.Fatal("Key not deterministic")
	}
	explicit := PopulationSpec{
		Flows: "vegas*2;reno*2", Topology: "single",
		RateMbps: defaultPopulationRateMbps,
		Duration: defaultPopulationDuration,
		Seed:     ReferenceSeed,
	}
	if base.Key().String() != explicit.Key().String() {
		t.Fatalf("defaulted key %v != explicit-default key %v", base.Key(), explicit.Key())
	}
	for name, variant := range map[string]PopulationSpec{
		"flows":    {Flows: "vegas*2;reno*3"},
		"topology": {Flows: "vegas*2;reno*2", Topology: "fanin:2"},
		"rate":     {Flows: "vegas*2;reno*2", RateMbps: 96},
		"buffer":   {Flows: "vegas*2;reno*2", BufferPkts: 64},
		"seed":     {Flows: "vegas*2;reno*2", Seed: 7},
		"duration": {Flows: "vegas*2;reno*2", Duration: time.Second},
		"epsilon":  {Flows: "vegas*2;reno*2", Epsilon: 0.2},
	} {
		if variant.Key().String() == base.Key().String() {
			t.Fatalf("changing %s does not change the cache key", name)
		}
	}
}

// TestPopulationSpecRunRender: repeated runs of one spec render identical
// bytes — the property the service's parity guarantee rests on — and the
// rendering carries both the population statistics and the network table.
func TestPopulationSpecRunRender(t *testing.T) {
	spec := PopulationSpec{Flows: "vegas*2;reno*2", Duration: 2 * time.Second, Seed: 3}
	first, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.Render(), second.Render()
	if a != b {
		t.Fatalf("two runs of one spec rendered different bytes:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "population") || !strings.Contains(a, "flow") {
		t.Fatalf("rendering missing expected sections:\n%s", a)
	}
}
