package network

import (
	"fmt"
	"math"
	"time"

	"starvation/internal/endpoint"
	"starvation/internal/netem"
	"starvation/internal/units"
)

// LinkSpec describes one bottleneck link of a multi-link topology. The
// classic single-bottleneck configuration (Config.Links == nil) is the
// degenerate case: one LinkSpec synthesized from the legacy Config fields,
// wired exactly as before, so existing scenarios are bit-identical.
type LinkSpec struct {
	// Name labels the link in results (defaults to "linkN").
	Name string
	// Rate is the link's drain rate (required, > 0).
	Rate units.Rate
	// BufferBytes is the drop-tail buffer; 0 means effectively infinite.
	BufferBytes int
	// Marker installs an AQM policy that ECN-marks arriving packets; nil
	// marks nothing.
	Marker netem.Marker
	// HopDelay is the propagation delay applied to a packet departing this
	// link on its way to the *next* link of its path (ignored for the last
	// link of a path, where the flow's Rm stage applies instead).
	HopDelay time.Duration
}

// checkRate refuses a link rate the event clock cannot serialize at: one
// full-size segment must take at least 1 ns (a faster link drains in zero
// time and the run never ends) and a representable time.Duration (a
// slower one overflows the clock). It computes the time as
// units.Rate.TxTime does; a zero, negative or NaN rate gives no time in
// that range.
func checkRate(what string, r units.Rate) error {
	tx := float64(endpoint.DefaultMSS) * 8 / float64(r) * float64(time.Second)
	if !(tx >= 1 && tx < math.MaxInt64) {
		return fmt.Errorf("%s rate %g bit/s out of range: a %d-byte segment must take 1ns to %v to serialize",
			what, float64(r), endpoint.DefaultMSS, time.Duration(math.MaxInt64))
	}
	return nil
}

// validate reports the first problem with the link spec.
func (ls LinkSpec) validate() error {
	if err := checkRate("link", ls.Rate); err != nil {
		return err
	}
	if ls.BufferBytes < 0 {
		return fmt.Errorf("negative buffer %d bytes", ls.BufferBytes)
	}
	if ls.HopDelay < 0 {
		return fmt.Errorf("negative hop delay %v", ls.HopDelay)
	}
	return nil
}

// ParkingLot builds the classic n-hop parking-lot chain: n identical
// bottlenecks in series separated by hopDelay. Long flows (nil Path)
// traverse the whole chain; cross-traffic pins Path to a single hop, e.g.
// Path: []int{1}.
func ParkingLot(n int, rate units.Rate, bufferBytes int, hopDelay time.Duration) []LinkSpec {
	links := make([]LinkSpec, n)
	for i := range links {
		links[i] = LinkSpec{
			Name:        fmt.Sprintf("hop%d", i),
			Rate:        rate,
			BufferBytes: bufferBytes,
			HopDelay:    hopDelay,
		}
	}
	return links
}

// FanIn builds a shared-uplink fan-in: n access links (indices 0..n-1)
// feeding one uplink (index n). Assign flows round-robin across access
// links with FanInPath; the uplink is the shared bottleneck, so scenarios
// usually set Config.Bottleneck to n.
func FanIn(n int, access units.Rate, accessBuffer int, hopDelay time.Duration, uplink units.Rate, uplinkBuffer int) []LinkSpec {
	links := make([]LinkSpec, n+1)
	for i := 0; i < n; i++ {
		links[i] = LinkSpec{
			Name:        fmt.Sprintf("access%d", i),
			Rate:        access,
			BufferBytes: accessBuffer,
			HopDelay:    hopDelay,
		}
	}
	links[n] = LinkSpec{Name: "uplink", Rate: uplink, BufferBytes: uplinkBuffer}
	return links
}

// FanInPath returns flow i's path through a FanIn(n, ...) topology: its
// round-robin access link followed by the shared uplink.
func FanInPath(flow, n int) []int {
	return []int{flow % n, n}
}

// linksOf resolves the configured link list: the explicit Links slice, or
// one synthesized from the legacy single-bottleneck fields.
func (cfg Config) linksOf() []LinkSpec {
	if len(cfg.Links) > 0 {
		return cfg.Links
	}
	return []LinkSpec{{
		Name:        "bottleneck",
		Rate:        cfg.Rate,
		BufferBytes: cfg.BufferBytes,
		Marker:      cfg.Marker,
	}}
}

// pathOf resolves a flow's path: the explicit Path, or every link in
// index order (the single bottleneck, or the full parking-lot chain).
func pathOf(spec FlowSpec, nLinks int) []int {
	if len(spec.Path) > 0 {
		return spec.Path
	}
	path := make([]int, nLinks)
	for i := range path {
		path[i] = i
	}
	return path
}

// validatePath checks a flow's explicit path against the link count: every
// index in range, no repeats (per-link flow counters are per visit-set, so
// a repeated index would double-count in conservation ledgers).
func validatePath(path []int, nLinks int) error {
	if path == nil {
		return nil
	}
	if len(path) == 0 {
		return fmt.Errorf("empty path")
	}
	seen := make(map[int]bool, len(path))
	for _, j := range path {
		if j < 0 || j >= nLinks {
			return fmt.Errorf("path link %d out of range [0, %d)", j, nLinks)
		}
		if seen[j] {
			return fmt.Errorf("path visits link %d twice", j)
		}
		seen[j] = true
	}
	return nil
}
