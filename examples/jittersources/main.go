// Jittersources: §2.1's catalog of non-congestive delay, one source at a
// time. The same Vegas flow runs on the same 24 Mbit/s path while the
// path's delay element cycles through the real-world mechanisms the paper
// lists — ACK aggregation, token bucket filters, bursty link-layer holds,
// scheduler spikes, plain scheduling noise — plus the ideal path as the
// control.
//
//	go run ./examples/jittersources
//
// The point of the table: mechanisms with completely different physics all
// become the same thing to the sender — RTT variation it cannot attribute
// — and a delay-convergent CCA prices every unattributed millisecond as
// congestion. D is what matters, not where D came from.
package main

import (
	"fmt"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/netem/jitter"
	"starvation/internal/network"
	"starvation/internal/rng"
	"starvation/internal/units"
)

func main() {
	mkJitter := func(name string) jitter.Policy {
		gen := rng.New(11)
		switch name {
		case "ideal":
			return jitter.None{}
		case "os-noise (uniform ≤5ms)":
			return &jitter.Uniform{Max: 5 * time.Millisecond, Rng: gen}
		case "ack-aggregation (20ms)":
			return jitter.PeriodicAggregation{Period: 20 * time.Millisecond}
		case "wifi-bursts (GE, 10ms)":
			return &jitter.GilbertElliott{
				PGoodToBad: 0.02, PBadToGood: 0.2,
				BadDelay: 10 * time.Millisecond, Rng: gen,
			}
		case "scheduler-spikes (10ms/100ms)":
			return jitter.PeriodicSpike{Period: 100 * time.Millisecond, SpikeLen: 10 * time.Millisecond}
		case "token-bucket (2MB/s, 15KB)":
			return &jitter.TokenBucket{RateBytesPerSec: 4e6, BurstBytes: 15000}
		}
		panic("unknown " + name)
	}

	names := []string{
		"ideal",
		"os-noise (uniform ≤5ms)",
		"ack-aggregation (20ms)",
		"wifi-bursts (GE, 10ms)",
		"scheduler-spikes (10ms/100ms)",
		"token-bucket (2MB/s, 15KB)",
	}

	fmt.Println("one Vegas flow, 24 Mbit/s, Rm = 60ms, 30s, per jitter source:")
	fmt.Printf("%-30s %8s %12s %12s %12s\n", "source", "bound D", "throughput", "rtt mean", "rtt max")
	for _, name := range names {
		pol := mkJitter(name)
		// The jitter switches on at t=10s so the CCA first learns the true
		// floor — persistent delay from t=0 would just look like a longer
		// path (see §5.1).
		delayed := &jitter.Scripted{
			Max: pol.Bound() + time.Millisecond,
			Fn: func(now time.Duration) time.Duration {
				if now < 10*time.Second {
					return 0
				}
				return pol.Delay(now, 0)
			},
		}
		n := network.New(
			network.Config{Rate: units.Mbps(24), Seed: 4},
			network.FlowSpec{Name: name, Alg: vegas.New(vegas.Config{}),
				Rm: 60 * time.Millisecond, FwdJitter: delayed},
		)
		res := n.RunWindow(30*time.Second, 15*time.Second, 30*time.Second)
		st := res.Flows[0].Stat
		fmt.Printf("%-30s %8v %12v %12v %12v\n",
			name, pol.Bound(), st.SteadyThpt,
			st.MeanRTT.Round(100*time.Microsecond),
			st.MaxRTT.Round(100*time.Microsecond))
	}

	fmt.Println(`
The table splits along the line the paper draws in §3. Intermittent
sources (noise, bursts, spikes) leave windows where some packet passes
unheld, and Vegas's per-epoch minimum filter finds those packets: the cost
stays small. ACK aggregation holds EVERY packet to the next boundary —
persistent, non-zero-mean delay that no filter can see through — and Vegas
prices all of it as queueing: 87% of the link gone. That is the paper's
point about filtering: it works only against delay patterns that happen to
expose the truth, and the adversarial model's D covers the ones that
don't. (The two-flow versions of these scenarios starve instead of just
slowing: see starvesim -scenario vegas-jitter, vivace-ackagg, bbr-two.)`)
}
