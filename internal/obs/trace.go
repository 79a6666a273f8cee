package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer writes one JSONL event per span to its sink. A nil *Tracer is
// valid: Emit drops the event, so engines trace unconditionally and pay
// only a nil check when tracing is off.
//
// Span schema (one JSON object per line):
//
//	{"ts":<unix-nanos>,"engine":"graphz","stage":"sio","iter":0,"part":2,"dur_ns":12345}
//
// ts is the span's start time; stage is one of the Stage* constants (or
// an engine-specific name); iter and part identify the (iteration,
// partition) the span covers.
type Tracer struct {
	mu      sync.Mutex
	w       io.Writer // nil on a collect-only tracer
	c       io.Closer
	buf     []byte // encoded spans not yet written to w
	queued  int64  // spans in buf
	err     error
	events  []SpanEvent // populated only on collecting tracers
	collect bool
	spans   atomic.Int64 // spans the sink accepted (or collected)
	dropped atomic.Int64 // spans a failed sink lost
}

// traceFlushBytes is how much encoded output Emit buffers before writing
// it to the sink.
const traceFlushBytes = 4096

// SpanEvent is one emitted span, as retained by a collecting tracer.
// Fields mirror the JSONL schema.
type SpanEvent struct {
	TS     int64  `json:"ts"`
	Engine string `json:"engine"`
	Stage  string `json:"stage"`
	Iter   int    `json:"iter"`
	Part   int    `json:"part"`
	DurNS  int64  `json:"dur_ns"`
}

// NewTracer wraps a sink. If w also implements io.Closer, Close closes it
// after flushing.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: w}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// NewCollectingTracer returns a tracer that retains every span event in
// memory (for post-run aggregation into a RunReport). With a non-nil w
// it also writes the usual JSONL stream; with nil it only collects.
func NewCollectingTracer(w io.Writer) *Tracer {
	t := &Tracer{collect: true}
	if w != nil {
		t.w = w
		if c, ok := w.(io.Closer); ok {
			t.c = c
		}
	}
	return t
}

// Events returns a copy of the collected span events (nil unless the
// tracer was built with NewCollectingTracer).
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) == 0 {
		return nil
	}
	out := make([]SpanEvent, len(t.events))
	copy(out, t.events)
	return out
}

// Emit writes one span event with an explicit start and duration; engines
// use it for durations accumulated out-of-band (e.g. prefetch goroutine
// read time).
func (t *Tracer) Emit(engine, stage string, iter, part int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.collect {
		// In-memory collection never fails; a broken sink must not lose
		// the events a RunReport is built from.
		t.events = append(t.events, SpanEvent{
			TS: start.UnixNano(), Engine: engine, Stage: stage,
			Iter: iter, Part: part, DurNS: dur.Nanoseconds(),
		})
	}
	if t.w == nil {
		t.spans.Add(1)
		return
	}
	if t.err != nil {
		// The sink already failed; count what it is losing so the run
		// can report the damage instead of silently dropping spans.
		t.dropped.Add(1)
		return
	}
	t.buf = fmt.Appendf(t.buf, "{\"ts\":%d,\"engine\":%q,\"stage\":%q,\"iter\":%d,\"part\":%d,\"dur_ns\":%d}\n",
		start.UnixNano(), engine, stage, iter, part, dur.Nanoseconds())
	t.queued++
	if len(t.buf) >= traceFlushBytes {
		t.flushLocked() //nolint:errcheck // latched in t.err
	}
}

// flushLocked writes the buffered spans to the sink. They count as
// emitted only once the sink accepts them: on a sink error every buffered
// span counts as dropped and the error latches. Caller holds mu.
func (t *Tracer) flushLocked() error {
	if t.err != nil || len(t.buf) == 0 {
		return t.err
	}
	_, err := t.w.Write(t.buf)
	n := t.queued
	t.buf, t.queued = t.buf[:0], 0
	if err != nil {
		t.err = err
		t.dropped.Add(n)
		return err
	}
	t.spans.Add(n)
	return nil
}

// Dropped returns how many span events were lost to a failed sink.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans returns the number of events the sink accepted so far (on a
// collect-only tracer, the number collected).
func (t *Tracer) Spans() int64 {
	if t == nil {
		return 0
	}
	return t.spans.Load()
}

// Flush writes buffered events to the sink.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

// Err returns the first write or flush error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close flushes and closes the sink (when it is an io.Closer). A failed
// sink is reported with the number of spans it lost, so callers can
// surface incomplete trace output instead of silently losing spans.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	err := t.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		if n := t.dropped.Load(); n > 0 {
			return fmt.Errorf("%w (%d spans dropped)", err, n)
		}
	}
	return err
}
