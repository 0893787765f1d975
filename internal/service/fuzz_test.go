package service

import (
	"math"
	"strings"
	"testing"
	"time"

	"starvation/internal/endpoint"
	"starvation/internal/scenario"
	"starvation/internal/units"
)

// FuzzBatchRequest decodes arbitrary POST /batches bodies. Whatever the
// decoder accepts must be runnable: no panic, every job's spec validates,
// and every link of every job's network serializes a full-size segment in
// a nanosecond or more and in a representable time.Duration — the rate
// check network.Validate applies, restated here so a gap in it shows.
func FuzzBatchRequest(f *testing.F) {
	// The bench module's sweep body and the README's examples.
	f.Add(`{"client":"t0","sweep":{"flows":"vegas*4;reno*4","rate_mbps":12,"buffer_pkts":200,"duration_sec":0.5,"seed_from":1000,"seeds":8}}`)
	f.Add(`{"client": "sweeps", "weight": 1, "chaos": "seed:3;fail:0.3",
  "sweep": {"flows": "vegas*4;reno*4", "duration_sec": 5, "seeds": 10}}`)
	f.Add(`{"jobs":[{"name":"a","flows":"vegas*8;reno*8","topology":"fanin:4","eps":0.1},{"flows":"bbr:rm=50ms","rate_mbps":100}]}`)
	f.Add(`{"jobs":[{"flows":"vegas;vegas","rate_mbps":1e300}]}`)
	f.Add(`{"jobs":[{"flows":"vegas:loss=NaN"}]}`)
	f.Add(`{"jobs":[{"flows":"vegas","topology":"parkinglot:3","rate_mbps":1e-300,"duration_sec":-1}]}`)
	f.Fuzz(func(t *testing.T, body string) {
		_, jobs, err := DecodeBatchRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		// A sweep's jobs differ only in seed and name, and validity does
		// not depend on the seed (TestSweepValidatesOnce), so each distinct
		// spec is checked once: a 10 000-seed sweep costs one validation.
		checked := map[scenario.PopulationSpec]bool{}
		for _, j := range jobs {
			spec := j.spec()
			spec.Seed = 0
			if checked[spec] {
				continue
			}
			checked[spec] = true
			if err := spec.Validate(); err != nil {
				t.Fatalf("accepted job %q is invalid: %v", j.Name, err)
			}
			cfg, err := spec.Config()
			if err != nil {
				t.Fatalf("accepted job %q has no config: %v", j.Name, err)
			}
			rates := []units.Rate{cfg.Rate}
			if cfg.Links != nil {
				rates = rates[:0]
				for _, l := range cfg.Links {
					rates = append(rates, l.Rate)
				}
			}
			for _, r := range rates {
				tx := float64(endpoint.DefaultMSS) * 8 / float64(r) * float64(time.Second)
				if !(tx >= 1 && tx < math.MaxInt64) {
					t.Fatalf("accepted job %q has link rate %g bit/s: a segment takes %g ns", j.Name, float64(r), tx)
				}
			}
		}
	})
}
