package obs

import (
	"errors"
	"testing"
)

// failWriter fails every write after the first n bytes have been accepted.
type failWriter struct {
	n   int
	err error
}

func (fw *failWriter) Write(p []byte) (int, error) {
	if fw.n <= 0 {
		return 0, fw.err
	}
	if len(p) > fw.n {
		n := fw.n
		fw.n = 0
		return n, fw.err
	}
	fw.n -= len(p)
	return len(p), nil
}

func TestJSONLWriterSurfacesWriteError(t *testing.T) {
	wantErr := errors.New("disk full")
	jw := NewJSONLWriter(&failWriter{n: 0, err: wantErr})

	// Buffered: the first emits succeed, the error appears at Flush.
	jw.Emit(Event{Type: EvEnqueue, Flow: 0, Bytes: 1500, Queue: 1500})
	if jw.err != nil {
		t.Fatalf("premature error before flush: %v", jw.err)
	}
	if err := jw.Flush(); !errors.Is(err, wantErr) {
		t.Fatalf("Flush = %v, want %v", err, wantErr)
	}

	// Errors are sticky: later emits are no-ops, Close repeats the error.
	jw.Emit(Event{Type: EvDeliver, Flow: 0, Bytes: 1500})
	if err := jw.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close = %v, want %v", err, wantErr)
	}
	if !errors.Is(jw.err, wantErr) {
		t.Fatalf("Err = %v, want sticky %v", jw.err, wantErr)
	}
}

func TestJSONLWriterMidRunFlushFailure(t *testing.T) {
	// A writer that accepts a little then fails models an export sink
	// dying mid-run; periodic Flush is how long runs notice before Close.
	wantErr := errors.New("pipe closed")
	jw := NewJSONLWriter(&failWriter{n: 100, err: wantErr})
	for i := 0; i < 4; i++ {
		jw.Emit(Event{Type: EvDeliver, Flow: 0, Seq: int64(i), Bytes: 1500})
	}
	if err := jw.Flush(); !errors.Is(err, wantErr) {
		t.Fatalf("mid-run Flush = %v, want %v", err, wantErr)
	}
}
