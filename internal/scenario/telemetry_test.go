package scenario

import (
	"reflect"
	"testing"
	"time"

	"starvation/internal/network"
)

// TestAllegroBurstTelemetry pins the flight recorder's T5.4d contract:
// a fixed-seed run produces a deterministic, non-empty episode log whose
// burst-attributed onsets land inside injected Gilbert–Elliott bad
// states, and the recorder attributes them via the fault-state stream.
func TestAllegroBurstTelemetry(t *testing.T) {
	run := func() *network.TelemetryResult {
		r := Registry["allegro-burst"](Opts{Telemetry: &network.TelemetryConfig{}})
		if r.Net.Telemetry == nil {
			t.Fatal("Opts.Telemetry did not reach the network config")
		}
		return r.Net.Telemetry
	}
	tr := run()

	if len(tr.Episodes) == 0 {
		t.Fatal("episode log empty; expected slow-start and burst episodes")
	}
	// The bursty flow (flow 0) must log at least one episode whose onset
	// window co-occurred with a GE bad state — the burst that silenced it.
	var burstEps int
	for _, ep := range tr.Episodes {
		if ep.Flow == 0 && ep.FaultAtOnset {
			burstEps++
			if ep.Onset == 0 {
				t.Errorf("burst-attributed episode at t=0; slow-start must not carry fault attribution")
			}
			if ep.Severity <= 0 || ep.Severity > 1 {
				t.Errorf("episode severity = %v, want (0, 1]", ep.Severity)
			}
			if ep.Name != "bursty" {
				t.Errorf("episode flow name = %q, want bursty", ep.Name)
			}
		}
		if ep.Flow == 1 && ep.FaultAtOnset {
			t.Errorf("clean flow episode at %v attributed to a fault; it has no gate", ep.Onset)
		}
	}
	if burstEps == 0 {
		t.Errorf("no episode on the bursty flow attributed to a GE burst:\n%+v", tr.Episodes)
	}

	// The measure phase must cover the run's steady window.
	var measure *network.Phase
	for i := range tr.Phases {
		if tr.Phases[i].Name == "measure" {
			measure = &tr.Phases[i]
		}
	}
	if measure == nil || measure.To != 60*time.Second {
		t.Fatalf("measure phase = %+v, want one ending at the 60s horizon", measure)
	}

	// Determinism: the same seed reproduces the identical episode log.
	if again := run(); !reflect.DeepEqual(tr.Episodes, again.Episodes) {
		t.Errorf("episode log not deterministic across identical runs:\n%+v\nvs\n%+v",
			tr.Episodes, again.Episodes)
	}
}
