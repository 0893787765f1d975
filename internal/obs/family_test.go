package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestFamilySetExposition: registration order for families, sorted label
// values within one, unlabelled samples for the empty value.
func TestFamilySetExposition(t *testing.T) {
	s := NewFamilySet()
	jobs := s.Counter("svc_jobs_total", "Jobs completed per client.", "client")
	depth := s.Gauge("svc_queue_depth", "Queued jobs.", "")
	jobs.Add("zeta", 3)
	jobs.Add("alpha", 1)
	jobs.Add("alpha", 1)
	depth.Set("", 7)

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "# HELP svc_jobs_total Jobs completed per client.\n" +
		"# TYPE svc_jobs_total counter\n" +
		"svc_jobs_total{client=\"alpha\"} 2\n" +
		"svc_jobs_total{client=\"zeta\"} 3\n" +
		"# HELP svc_queue_depth Queued jobs.\n" +
		"# TYPE svc_queue_depth gauge\n" +
		"svc_queue_depth 7\n"
	if got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestFamilyReregister: re-declaring a family returns the same one;
// changing its kind or label is a loud programming error.
func TestFamilyReregister(t *testing.T) {
	s := NewFamilySet()
	a := s.Counter("svc_x_total", "x", "client")
	if b := s.Counter("svc_x_total", "ignored", "client"); b != a {
		t.Fatal("re-registration returned a different family")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting redeclaration did not panic")
		}
	}()
	s.Gauge("svc_x_total", "x", "client")
}

// TestFamilyConcurrent: the multi-writer contract Registry refuses —
// increments from many goroutines while another renders the exposition.
func TestFamilyConcurrent(t *testing.T) {
	s := NewFamilySet()
	c := s.Counter("svc_ops_total", "ops", "client")
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := string(rune('a' + w%4))
			for i := 0; i < perWriter; i++ {
				c.Add(client, 1)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := s.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	total := int64(0)
	for _, client := range []string{"a", "b", "c", "d"} {
		total += c.Value(client)
	}
	if total != writers*perWriter {
		t.Fatalf("lost updates: total %d, want %d", total, writers*perWriter)
	}
}
