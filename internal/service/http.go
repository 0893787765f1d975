package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"starvation/internal/runner"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /batches                     submit a batch (202; 400/429/503)
//	GET    /batches                     list batch statuses
//	GET    /batches/{id}                one batch's status
//	DELETE /batches/{id}                cancel a batch
//	GET    /batches/{id}/events        stream events (JSONL; SSE on Accept)
//	GET    /batches/{id}/artifacts     list the jobs done
//	GET    /batches/{id}/artifacts/{job}  one job's rendered output
//	GET    /metrics                    Prometheus text exposition
//	GET    /healthz                    liveness (503 while draining)
//	GET    /debug/queue                scheduler state
//	GET    /                           HTML dashboard
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /batches", s.handleSubmit)
	mux.HandleFunc("POST /batches/{$}", s.handleSubmit)
	mux.HandleFunc("GET /batches", s.handleList)
	mux.HandleFunc("GET /batches/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /batches/{id}", s.handleCancel)
	mux.HandleFunc("GET /batches/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /batches/{id}/artifacts", s.handleArtifactList)
	mux.HandleFunc("GET /batches/{id}/artifacts/{job}", s.handleArtifact)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/queue", s.handleDebugQueue)
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is every non-2xx JSON response. For 400s Error carries the
// same message the CLI exits 2 with (the shared validation path).
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining; not accepting batches"})
		return
	}
	req, jobs, err := DecodeBatchRequest(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	st, err := s.submit(req, jobs)
	switch err {
	case nil:
	case errQueueFull:
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: errQueueFull.Error()})
		return
	case errClosed:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining; not accepting batches"})
		return
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Location", "/batches/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// retryAfterSeconds estimates when queue space is likely: the backlog
// divided by the worker set, floored at one second.
func (s *Server) retryAfterSeconds() int {
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	sec := s.sched.queued() / (workers * 4)
	if sec < 1 {
		sec = 1
	}
	return sec
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statuses())
}

func (s *Server) batchOr404(w http.ResponseWriter, r *http.Request) (*batch, bool) {
	id := r.PathValue("id")
	if !validBatchID(id) {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such batch"})
		return nil, false
	}
	b, ok := s.batch(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such batch"})
		return nil, false
	}
	return b, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if b, ok := s.batchOr404(w, r); ok {
		writeJSON(w, http.StatusOK, b.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batchOr404(w, r)
	if !ok {
		return
	}
	st, _ := s.cancel(b.rec.ID)
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the batch's events: full replay first, then live
// until the batch is terminal. JSONL by default; text/event-stream when
// the client asks for SSE.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batchOr404(w, r)
	if !ok {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	i := 0
	for {
		evs, wake, open := b.hub.next(i)
		if len(evs) > 0 {
			for _, ev := range evs {
				data, err := json.Marshal(ev)
				if err != nil {
					return
				}
				if sse {
					fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
				} else {
					fmt.Fprintf(w, "%s\n", data)
				}
			}
			i += len(evs)
			flush()
			continue
		}
		if !open {
			return // stream complete: batch terminal, backlog drained
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// handleArtifactList lists the jobs the manifest records done; each is
// served by handleArtifact.
func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batchOr404(w, r)
	if !ok {
		return
	}
	names := []string{}
	for _, bj := range b.rec.Jobs {
		if e, ok := b.manifest.Entry(bj.Name); ok && e.Status == runner.StatusDone {
			names = append(names, bj.Name)
		}
	}
	sort.Strings(names)
	writeJSON(w, http.StatusOK, names)
}

// handleArtifact serves a job's artifact: an executed job's file in the
// batch tree, else a restored job's bytes from the cache. A job the
// manifest records as restored (no attempts) tries the cache first, so
// serving it opens no file.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	b, ok := s.batchOr404(w, r)
	if !ok {
		return
	}
	job := r.PathValue("job")
	if job != sanitizeName(job) {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such artifact"})
		return
	}
	data, ok := s.artifact(b, job)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such artifact"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(data)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.gQueue.Set("", int64(s.sched.queued()))
	s.gActive.Set("", int64(s.activeBatches()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.pool.WritePrometheus(w); err != nil {
		return
	}
	_ = s.fams.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleDebugQueue(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"depth":   s.sched.queued(),
		"clients": s.sched.snapshot(),
		"stats":   s.pool.Stats(),
	})
}
