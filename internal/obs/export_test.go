package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"starvation/internal/packet"
)

// Test-only readers: the production code writes events and counters, and
// these read them back so tests can check what was written.

// ReadJSONL parses an event trace written by JSONLWriter. Blank lines are
// skipped; any malformed line aborts with an error naming its number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", lineNo, err)
		}
		t, ok := ParseEventType(je.Type)
		if !ok {
			return nil, fmt.Errorf("obs: jsonl line %d: unknown event type %q", lineNo, je.Type)
		}
		out = append(out, Event{
			Type:  t,
			At:    time.Duration(je.TNs),
			Flow:  packet.FlowID(je.Flow),
			Seq:   je.Seq,
			Bytes: je.Bytes,
			Queue: je.Queue,
			Retx:  je.Retx,
			Hop:   je.Hop,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading jsonl: %w", err)
	}
	return out, nil
}

// ParseEventType inverts String; ok is false for unknown names.
func ParseEventType(s string) (EventType, bool) {
	for i, n := range eventTypeNames {
		if n == s {
			return EventType(i), true
		}
	}
	return 0, false
}

// Snapshot returns a deep copy of the current counters.
func (r *Registry) Snapshot() Snapshot {
	out := r.snap
	out.Flows = append([]FlowCounters(nil), r.snap.Flows...)
	return out
}

// Value returns the current sample for the label value.
func (f *Family) Value(labelValue string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.vals[labelValue]
}
