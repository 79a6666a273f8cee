package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// failWriter fails every write after the first okAfter bytes-writes, and
// optionally fails Close too.
type failWriter struct {
	okWrites int
	writes   int
	closeErr error
}

var errSink = errors.New("sink broken")

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.okWrites {
		return 0, errSink
	}
	return len(p), nil
}

func (w *failWriter) Close() error { return w.closeErr }

func TestTracerSurfacesWriteErrors(t *testing.T) {
	tr := NewTracer(&failWriter{})
	t0 := time.Unix(0, 0)
	// bufio absorbs small writes; force the flush to hit the sink.
	for i := 0; i < 10_000; i++ {
		tr.Emit("graphz", StageSio, 0, 0, t0, time.Nanosecond)
	}
	if err := tr.Err(); !errors.Is(err, errSink) {
		t.Fatalf("Err() = %v, want errSink", err)
	}
	if tr.Dropped() == 0 {
		t.Error("failed sink must count dropped spans")
	}
	dropped := tr.Dropped()
	// Further emits drop without touching the sink.
	tr.Emit("graphz", StageSio, 0, 0, t0, time.Nanosecond)
	if tr.Dropped() != dropped+1 {
		t.Errorf("Dropped() = %d, want %d", tr.Dropped(), dropped+1)
	}
	err := tr.Close()
	if !errors.Is(err, errSink) {
		t.Fatalf("Close() = %v, want errSink", err)
	}
	if !strings.Contains(err.Error(), "spans dropped") {
		t.Errorf("Close() = %q, want dropped-span count", err)
	}
}

// TestTracerCountsUnflushedSpansDropped: spans still buffered when the
// sink fails never reached it, so they count as dropped, not emitted, and
// the failed flush latches into Err.
func TestTracerCountsUnflushedSpansDropped(t *testing.T) {
	tr := NewTracer(&failWriter{})
	for i := 0; i < 10; i++ {
		tr.Emit("graphz", StageSio, i, 0, time.Unix(0, 0), time.Nanosecond)
	}
	if err := tr.Flush(); !errors.Is(err, errSink) {
		t.Fatalf("Flush() = %v, want errSink", err)
	}
	if err := tr.Err(); !errors.Is(err, errSink) {
		t.Errorf("Err() = %v after a failed Flush, want errSink", err)
	}
	err := tr.Close()
	if !errors.Is(err, errSink) || !strings.Contains(err.Error(), "(10 spans dropped)") {
		t.Errorf("Close() = %v, want errSink with 10 spans dropped", err)
	}
	if tr.Spans() != 0 || tr.Dropped() != 10 {
		t.Errorf("Spans() = %d, Dropped() = %d; want 0 and 10", tr.Spans(), tr.Dropped())
	}
}

func TestTracerCloseErrorWithoutDrops(t *testing.T) {
	closeErr := errors.New("close failed")
	tr := NewTracer(&failWriter{okWrites: 1 << 30, closeErr: closeErr})
	tr.Emit("graphz", StageSio, 0, 0, time.Unix(0, 0), time.Nanosecond)
	err := tr.Close()
	if !errors.Is(err, closeErr) {
		t.Fatalf("Close() = %v, want closeErr", err)
	}
	if strings.Contains(err.Error(), "spans dropped") {
		t.Errorf("Close() = %q: no spans were dropped", err)
	}
}

func TestCollectingTracerKeepsEventsOnFailedSink(t *testing.T) {
	tr := NewCollectingTracer(&failWriter{})
	t0 := time.Unix(0, 0)
	n := 10_000
	for i := 0; i < n; i++ {
		tr.Emit("graphz", StageWorker, i, 0, t0, time.Nanosecond)
	}
	if len(tr.Events()) != n {
		t.Fatalf("events = %d, want %d despite sink failure", len(tr.Events()), n)
	}
	if tr.Err() == nil || tr.Dropped() == 0 {
		t.Errorf("sink failure not surfaced: err=%v dropped=%d", tr.Err(), tr.Dropped())
	}
	// The report built from this tracer still sees every span.
	rep := BuildReport(ReportInfo{Engine: "graphz"}, nil, tr, nil)
	var spans int64
	for _, s := range rep.Stages {
		spans += s.Spans
	}
	if spans != int64(n) {
		t.Errorf("report spans = %d, want %d", spans, n)
	}
}
