package scenario

import (
	"io"
	"testing"
	"time"

	"starvation/internal/obs"
)

// TestProbeDoesNotPerturbBBRTwo is the acceptance check that
// instrumentation is observation only: the fixed-seed bbr-two scenario
// must produce bit-identical throughputs, ratios, and event-loop activity
// with a full probe stack (JSONL exporter + registry) and with none.
func TestProbeDoesNotPerturbBBRTwo(t *testing.T) {
	opts := Opts{Seed: 2, Duration: 20 * time.Second}

	bare := Registry["bbr-two"](opts)

	reg := obs.NewRegistry()
	jw := obs.NewJSONLWriter(io.Discard)
	probed := Registry["bbr-two"](Opts{Seed: 2, Duration: 20 * time.Second,
		Probe: obs.Multi(reg, jw)})
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	if br, pr := bare.Net.Ratio(), probed.Net.Ratio(); br != pr {
		t.Errorf("ratio with probe %v != without %v", pr, br)
	}
	for i := range bare.Net.Flows {
		b, p := bare.Net.Flows[i].Stat, probed.Net.Flows[i].Stat
		if b.SteadyThpt != p.SteadyThpt || b.Throughput != p.Throughput {
			t.Errorf("flow %d throughput: bare %v/%v, probed %v/%v",
				i, b.SteadyThpt, b.Throughput, p.SteadyThpt, p.Throughput)
		}
		if b.LossEvents != p.LossEvents || b.AckedBytes != p.AckedBytes {
			t.Errorf("flow %d loss/acked: bare %d/%d, probed %d/%d",
				i, b.LossEvents, b.AckedBytes, p.LossEvents, p.AckedBytes)
		}
	}
	// The virtual event loop itself must be untouched: probes run inline
	// and schedule nothing.
	if b, p := bare.Net.Obs.Global.SimEventsFired, probed.Net.Obs.Global.SimEventsFired; b != p {
		t.Errorf("sim events fired: bare %d, probed %d", b, p)
	}
}
