package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// FamilySet is a thread-safe group of labelled metric families for
// long-running components. Registry is deliberately single-writer and
// per-run (it mirrors the simulator feeding it); a daemon serving many
// concurrent batches needs the opposite contract — counters that
// accumulate across runs and accept increments from any goroutine. The
// experiment service keeps its per-client and per-batch families here and
// appends them to /metrics after the per-run registries.
type FamilySet struct {
	mu       sync.Mutex
	families map[string]*Family
	order    []string // registration order, for stable exposition
}

// NewFamilySet returns an empty set.
func NewFamilySet() *FamilySet {
	return &FamilySet{families: map[string]*Family{}}
}

// Family is one named metric family: a set of samples distinguished by a
// single label. The empty label value emits an unlabelled sample, so a
// family can also hold a plain scalar.
type Family struct {
	name, help, label string
	gauge             bool

	mu   sync.Mutex
	vals map[string]int64
}

// Counter registers (or retrieves) a counter family. Registering an
// existing name returns the same family; the first registration's help,
// label, and kind win — families are declared once at startup, and a
// conflicting redeclaration is a programming error reported loudly.
func (s *FamilySet) Counter(name, help, label string) *Family {
	return s.family(name, help, label, false)
}

// Gauge registers (or retrieves) a gauge family.
func (s *FamilySet) Gauge(name, help, label string) *Family {
	return s.family(name, help, label, true)
}

func (s *FamilySet) family(name, help, label string, gauge bool) *Family {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.families[name]; ok {
		if f.gauge != gauge || f.label != label {
			panic(fmt.Sprintf("obs: metric family %q redeclared with different kind or label", name))
		}
		return f
	}
	f := &Family{name: name, help: help, label: label, gauge: gauge, vals: map[string]int64{}}
	s.families[name] = f
	s.order = append(s.order, name)
	return f
}

// Add increments the sample for the label value (creating it at zero).
func (f *Family) Add(labelValue string, delta int64) {
	f.mu.Lock()
	f.vals[labelValue] += delta
	f.mu.Unlock()
}

// Set replaces the sample for the label value (gauges).
func (f *Family) Set(labelValue string, v int64) {
	f.mu.Lock()
	f.vals[labelValue] = v
	f.mu.Unlock()
}

// WritePrometheus renders every family in the text exposition format:
// families in registration order, samples sorted by label value so the
// output is diffable run to run.
func (s *FamilySet) WritePrometheus(w io.Writer) error {
	s.mu.Lock()
	fams := make([]*Family, len(s.order))
	for i, name := range s.order {
		fams[i] = s.families[name]
	}
	s.mu.Unlock()
	for _, f := range fams {
		typ := "counter"
		if f.gauge {
			typ = "gauge"
		}
		if err := WriteHeader(w, f.name, f.help, typ); err != nil {
			return err
		}
		f.mu.Lock()
		labels := make([]string, 0, len(f.vals))
		for lv := range f.vals {
			labels = append(labels, lv)
		}
		sort.Strings(labels)
		lines := make([]string, len(labels))
		for i, lv := range labels {
			if lv == "" {
				lines[i] = fmt.Sprintf("%s %d\n", f.name, f.vals[lv])
			} else {
				lines[i] = fmt.Sprintf("%s{%s=%q} %d\n", f.name, f.label, lv, f.vals[lv])
			}
		}
		f.mu.Unlock()
		for _, line := range lines {
			if _, err := io.WriteString(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
