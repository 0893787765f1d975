package obs

import "sort"

// cohortCounters aggregates the FlowCounters of every flow sharing a
// cohort label. Population experiments label each flow with its cohort
// (typically the CCA name, or an RTT class) so a 1000-flow snapshot
// summarizes into a handful of rows instead of a thousand.
type cohortCounters struct {
	// Cohort is the shared label; flows with an empty label aggregate
	// under "" (rendered as "uncohorted" by exporters).
	Cohort string `json:"cohort"`
	// Flows is the number of flows aggregated.
	Flows int `json:"flows"`
	// Sum holds the field-wise sums of the member flows' counters. Name
	// is left empty (it has no meaningful sum).
	Sum FlowCounters `json:"sum"`
}

// cohorts folds the per-flow counters into per-cohort sums, sorted by
// cohort label so the output is stable for diffing and hashing.
func (s *Snapshot) cohorts() []cohortCounters {
	byLabel := make(map[string]*cohortCounters)
	order := make([]string, 0, 4)
	for i := range s.Flows {
		f := &s.Flows[i]
		c, ok := byLabel[f.Cohort]
		if !ok {
			c = &cohortCounters{Cohort: f.Cohort}
			byLabel[f.Cohort] = c
			order = append(order, f.Cohort)
		}
		c.Flows++
		addCounters(&c.Sum, f)
	}
	sort.Strings(order)
	out := make([]cohortCounters, 0, len(order))
	for _, label := range order {
		out = append(out, *byLabel[label])
	}
	return out
}

// addCounters accumulates src's numeric fields into dst, leaving the
// identity fields (Name, Cohort) alone.
func addCounters(dst, src *FlowCounters) {
	dst.PacketsSent += src.PacketsSent
	dst.PacketsEnqueued += src.PacketsEnqueued
	dst.PacketsDropped += src.PacketsDropped
	dst.PacketsMarked += src.PacketsMarked
	dst.PacketsDelivered += src.PacketsDelivered
	dst.Retransmits += src.Retransmits
	dst.AcksReceived += src.AcksReceived
	dst.PacketsDequeued += src.PacketsDequeued
	dst.DroppedAtGate += src.DroppedAtGate
	dst.BytesSent += src.BytesSent
	dst.BytesEnqueued += src.BytesEnqueued
	dst.BytesAcked += src.BytesAcked
	dst.BytesDelivered += src.BytesDelivered
	dst.CwndUpdates += src.CwndUpdates
	dst.RateSamples += src.RateSamples
}
