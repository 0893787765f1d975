package network

import (
	"encoding/binary"
	"sync"
	"time"
)

// Session is a reusable run context: it owns fully wired networks — event
// arenas, flow/endpoint state, netem elements, trace buffers — and recycles
// them across runs, so a sweep (thousands of short realizations) pays
// construction once instead of once per run. Buffers are grow-only, sized
// by the largest configuration the session has seen.
//
// Networks are cached by *shape*: what wire bakes into the element graph
// (link count, each flow's resolved path, and which loss gates sit on its
// forward chain). A run whose shape matches a cached network reuses it;
// anything else — rates, seeds, buffer sizes, CCA instances, jitter
// policies, ACK policies, ECN, markers, guard and telemetry options,
// durations — is a plain parameter, applied by configure on every run,
// the first included. Results are always detached: every trace series is
// cloned out of the recycled buffers, so a Result outlives the session's
// next run untouched.
//
// A nil *Session is valid and runs one-shot: the network is wired for the
// run and dropped after it, nothing is cached, and the Result keeps the
// network's own trace buffers — what New(cfg, specs...).Run(d) does.
// Callers with an optional session just call through it.
//
// A Session is single-owner, like the Simulator inside it: one goroutine
// runs it at a time. Sweeps borrow one per item from a SessionPool;
// sharing one across goroutines corrupts the arenas.
type Session struct {
	nets map[string]*Network
	key  []byte // scratch for shape-key assembly (no per-run alloc)
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{nets: make(map[string]*Network)}
}

// maxCachedShapes bounds the session's network cache. A sweep touches a
// handful of shapes; if a pathological caller cycles through more, the
// cache is dropped wholesale and rebuilt rather than growing without
// bound.
const maxCachedShapes = 32

// Run executes one realization through the session, with the steady-state
// window defaulting to the second half of the run — the session analogue
// of New(cfg, specs...).Run(d), including NewChecked's validation.
func (s *Session) Run(cfg Config, d time.Duration, specs ...FlowSpec) (*Result, error) {
	return s.RunWindow(cfg, d, d/2, d, specs...)
}

// RunWindow executes one realization for duration d with steady-state
// statistics over [from, to), recycling a cached network when the
// configuration's shape matches one the session has already wired. The
// returned Result is fully detached from the session's buffers.
func (s *Session) RunWindow(cfg Config, d, from, to time.Duration, specs ...FlowSpec) (*Result, error) {
	if s == nil {
		n, err := NewChecked(cfg, specs...)
		if err != nil {
			return nil, err
		}
		return n.RunWindow(d, from, to), nil
	}
	if err := Validate(cfg, specs...); err != nil {
		return nil, err
	}
	nLinks := len(cfg.linksOf())
	s.key = appendShapeKey(s.key[:0], nLinks, specs)
	n := s.nets[string(s.key)]
	if n == nil {
		if len(s.nets) >= maxCachedShapes {
			s.nets = make(map[string]*Network)
		}
		n = wire(nLinks, specs)
		s.nets[string(s.key)] = n
	}
	n.configure(cfg, specs)
	res := n.RunWindow(d, from, to)
	detachTraces(res)
	return res, nil
}

// appendShapeKey encodes the shape wire builds from: the link count, then
// per flow its impairment chain and its resolved path. Everything else
// about a config is a run parameter and stays out of the key.
func appendShapeKey(key []byte, nLinks int, specs []FlowSpec) []byte {
	key = binary.AppendUvarint(key, uint64(nLinks))
	for _, spec := range specs {
		key = append(key, byte(chainOf(spec)))
		if len(spec.Path) > 0 {
			key = binary.AppendUvarint(key, uint64(len(spec.Path)))
			for _, j := range spec.Path {
				key = binary.AppendUvarint(key, uint64(j))
			}
		} else {
			// Nil path resolves to every link in index order (pathOf).
			key = binary.AppendUvarint(key, uint64(nLinks))
			for j := 0; j < nLinks; j++ {
				key = binary.AppendUvarint(key, uint64(j))
			}
		}
	}
	return key
}

// detachTraces clones every trace series of a result out of the network's
// recycled buffers. collect() hands out pointers into network-owned series;
// without this, the session's next run would clobber the previous result.
func detachTraces(res *Result) {
	res.QueueTrace = res.QueueTrace.Clone()
	for i := range res.Links {
		if res.Links[i].Queue != nil {
			res.Links[i].Queue = res.Links[i].Queue.Clone()
		}
	}
	for i := range res.Flows {
		fr := &res.Flows[i]
		fr.RTT = fr.RTT.Clone()
		fr.Rate = fr.Rate.Clone()
		fr.Cwnd = fr.Cwnd.Clone()
	}
}

// SessionPool hands out single-owner sessions to concurrent workers: Get a
// session, run any number of realizations through it, Put it back. Unlike
// sync.Pool it never discards warm sessions under GC pressure and is fully
// deterministic, which keeps sweep results reproducible run to run.
type SessionPool struct {
	mu   sync.Mutex
	free []*Session
}

// NewSessionPool returns an empty pool.
func NewSessionPool() *SessionPool { return &SessionPool{} }

// Get returns an idle session, creating one if none is free. The caller
// owns it exclusively until Put.
func (p *SessionPool) Get() *Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return NewSession()
}

// Put returns a session to the pool. The caller must not use it afterward.
func (p *SessionPool) Put(s *Session) {
	if s == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}
