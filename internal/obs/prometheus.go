package obs

import (
	"fmt"
	"io"
)

// WritePrometheus renders a Snapshot in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers followed by one sample per
// flow, labelled flow="<name>", plus unlabelled global series. The output
// is suitable for node_exporter's textfile collector or offline diffing.
func WritePrometheus(w io.Writer, snap *Snapshot) error {
	type metric struct {
		name, help, typ string
		value           func(*FlowCounters) int64
	}
	perFlow := []metric{
		{"starvesim_packets_sent_total", "Segments transmitted by the sender (including retransmissions).", "counter",
			func(f *FlowCounters) int64 { return f.PacketsSent }},
		{"starvesim_packets_enqueued_total", "Segments accepted into the bottleneck FIFO.", "counter",
			func(f *FlowCounters) int64 { return f.PacketsEnqueued }},
		{"starvesim_packets_dropped_total", "Segments discarded (drop-tail or random loss).", "counter",
			func(f *FlowCounters) int64 { return f.PacketsDropped }},
		{"starvesim_packets_marked_total", "Segments ECN-marked at the bottleneck.", "counter",
			func(f *FlowCounters) int64 { return f.PacketsMarked }},
		{"starvesim_packets_delivered_total", "Segments that reached the receiver endpoint.", "counter",
			func(f *FlowCounters) int64 { return f.PacketsDelivered }},
		{"starvesim_retransmits_total", "Retransmitted segments.", "counter",
			func(f *FlowCounters) int64 { return f.Retransmits }},
		{"starvesim_acks_received_total", "Acknowledgments processed by the sender.", "counter",
			func(f *FlowCounters) int64 { return f.AcksReceived }},
		{"starvesim_bytes_sent_total", "Payload bytes transmitted.", "counter",
			func(f *FlowCounters) int64 { return f.BytesSent }},
		{"starvesim_bytes_enqueued_total", "Payload bytes accepted into the bottleneck FIFO.", "counter",
			func(f *FlowCounters) int64 { return f.BytesEnqueued }},
		{"starvesim_bytes_acked_total", "Payload bytes cumulatively acknowledged.", "counter",
			func(f *FlowCounters) int64 { return f.BytesAcked }},
		{"starvesim_bytes_delivered_total", "Distinct payload bytes accepted by the receiver.", "counter",
			func(f *FlowCounters) int64 { return f.BytesDelivered }},
		{"starvesim_packets_dequeued_total", "Segments that completed bottleneck serialization.", "counter",
			func(f *FlowCounters) int64 { return f.PacketsDequeued }},
		{"starvesim_dropped_at_gate_total", "Segments discarded by pre-queue loss gates (Bernoulli or Gilbert-Elliott).", "counter",
			func(f *FlowCounters) int64 { return f.DroppedAtGate }},
	}
	for _, m := range perFlow {
		if err := WriteHeader(w, m.name, m.help, m.typ); err != nil {
			return err
		}
		for i := range snap.Flows {
			f := &snap.Flows[i]
			name := f.Name
			if name == "" {
				name = fmt.Sprintf("flow%d", i)
			}
			if _, err := fmt.Fprintf(w, "%s{flow=%q} %d\n", m.name, name, m.value(f)); err != nil {
				return err
			}
		}
	}

	// Cohort-level aggregation: emitted only when at least one flow carries
	// a cohort label, so uncohorted (classic 2-flow) exports are unchanged.
	// Population runs read starvation structure from these few series
	// instead of thousands of per-flow samples.
	if cohorts := snap.cohorts(); len(cohorts) > 1 || (len(cohorts) == 1 && cohorts[0].Cohort != "") {
		perCohort := []struct {
			name, help string
			value      func(*cohortCounters) int64
		}{
			{"starvesim_cohort_flows", "Flows aggregated under the cohort label.",
				func(c *cohortCounters) int64 { return int64(c.Flows) }},
			{"starvesim_cohort_packets_sent_total", "Segments transmitted by the cohort's senders.",
				func(c *cohortCounters) int64 { return c.Sum.PacketsSent }},
			{"starvesim_cohort_packets_dropped_total", "Segments of the cohort discarded anywhere on the path.",
				func(c *cohortCounters) int64 { return c.Sum.PacketsDropped }},
			{"starvesim_cohort_packets_delivered_total", "Segments of the cohort that reached their receivers.",
				func(c *cohortCounters) int64 { return c.Sum.PacketsDelivered }},
			{"starvesim_cohort_bytes_acked_total", "Payload bytes cumulatively acknowledged across the cohort.",
				func(c *cohortCounters) int64 { return c.Sum.BytesAcked }},
			{"starvesim_cohort_retransmits_total", "Retransmitted segments across the cohort.",
				func(c *cohortCounters) int64 { return c.Sum.Retransmits }},
		}
		for _, m := range perCohort {
			if err := WriteHeader(w, m.name, m.help, "counter"); err != nil {
				return err
			}
			for i := range cohorts {
				c := &cohorts[i]
				label := c.Cohort
				if label == "" {
					label = "uncohorted"
				}
				if _, err := fmt.Fprintf(w, "%s{cohort=%q} %d\n", m.name, label, m.value(c)); err != nil {
					return err
				}
			}
		}
	}

	globals := []struct {
		name, help, typ string
		value           int64
	}{
		{"starvesim_queue_depth_max_bytes", "High-water mark of the bottleneck queue.", "gauge", snap.Global.MaxQueueBytes},
		{"starvesim_queue_packets_dequeued_total", "Segments that completed bottleneck serialization.", "counter", snap.Global.PacketsDequeued},
		{"starvesim_sim_events_scheduled_total", "Discrete events scheduled on the virtual clock.", "counter", int64(snap.Global.SimEventsScheduled)},
		{"starvesim_sim_events_fired_total", "Discrete events executed by the virtual clock.", "counter", int64(snap.Global.SimEventsFired)},
	}
	for _, g := range globals {
		if err := WriteHeader(w, g.name, g.help, g.typ); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", g.name, g.value); err != nil {
			return err
		}
	}
	return nil
}

// WriteHeader writes the HELP and TYPE lines that open a metric family in
// the text exposition format; every exporter in the module writes its
// headers through it.
func WriteHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}
