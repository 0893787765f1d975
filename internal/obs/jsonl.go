package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// jsonEvent is the JSONL wire form of an Event. Timestamps are integer
// nanoseconds so a write/read round trip is exact.
type jsonEvent struct {
	Type  string `json:"type"`
	TNs   int64  `json:"t_ns"`
	Flow  int    `json:"flow"`
	Seq   int64  `json:"seq"`
	Bytes int    `json:"bytes"`
	Queue int    `json:"queue"`
	Retx  bool   `json:"retx,omitempty"`
	Hop   uint8  `json:"hop,omitempty"`
}

// JSONLWriter is a Probe that streams events as one JSON object per line,
// buffered. Errors are sticky: the first write failure is remembered and
// later Emits become no-ops, so the simulation hot path never has to
// handle I/O errors inline. Check Close (or Err) at the end of the run.
type JSONLWriter struct {
	bw  *bufio.Writer
	err error
}

// NewJSONLWriter wraps w in a buffered event writer. The caller retains
// ownership of w (Close flushes but does not close it).
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Emit implements Probe.
func (jw *JSONLWriter) Emit(e Event) {
	if jw.err != nil {
		return
	}
	line, err := json.Marshal(jsonEvent{
		Type:  e.Type.String(),
		TNs:   int64(e.At),
		Flow:  int(e.Flow),
		Seq:   e.Seq,
		Bytes: e.Bytes,
		Queue: e.Queue,
		Retx:  e.Retx,
		Hop:   e.Hop,
	})
	if err != nil {
		jw.err = err
		return
	}
	if _, err := jw.bw.Write(line); err != nil {
		jw.err = err
		return
	}
	jw.err = jw.bw.WriteByte('\n')
}

// Flush pushes buffered events to the underlying writer and returns the
// first error seen, without ending the stream. Long-running consumers
// (the -watch live view, batch drivers checkpointing mid-run) call it
// periodically so an export failure surfaces while the run can still
// report it as a structured error instead of dying silently at Close.
func (jw *JSONLWriter) Flush() error {
	if err := jw.bw.Flush(); err != nil && jw.err == nil {
		jw.err = err
	}
	return jw.err
}

// Close flushes buffered events and returns the first error seen.
func (jw *JSONLWriter) Close() error { return jw.Flush() }
