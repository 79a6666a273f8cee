package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := r.CounterValue("x_total"); got != 5 {
		t.Errorf("CounterValue = %d, want 5", got)
	}
	// Same name resolves to the same instrument.
	if r.Counter("x_total") != c {
		t.Error("counter identity lost across lookups")
	}
	g := r.Gauge("g")
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Errorf("gauge = %d, want 42", got)
	}
	if r.CounterValue("missing") != 0 {
		t.Error("missing counter should read 0")
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter should read 0")
	}
	r.Gauge("g").Set(1)
	r.RecordIter(IterStats{})
	if r.Iters() != nil || r.Counters() != nil {
		t.Error("nil registry should return nil views")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
}

// TestDisabledPathAllocatesZero proves the no-op fast path engines take
// when no sink is attached: resolving and driving nil instruments and
// nil-tracer spans must not allocate.
func TestDisabledPathAllocatesZero(t *testing.T) {
	var r *Registry
	var tr *Tracer
	c := r.Counter("hot_total")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		tr.Emit("graphz", StageSio, 1, 2, time.Time{}, time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("disabled observability path allocates %v per op, want 0", allocs)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("used_bytes").Set(7)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_total counter", "a_total 1",
		"b_total 2",
		"# TYPE used_bytes gauge", "used_bytes 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Counters render in sorted order.
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Error("counters not sorted")
	}
}

func TestTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit("graphz", StageDrain, 3, 1, time.Now(), time.Microsecond)
	start := time.Unix(0, 12345)
	tr.Emit("xstream", StageWorker, 0, 2, start, 67*time.Nanosecond)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Spans() != 2 {
		t.Errorf("spans = %d, want 2", tr.Spans())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	type ev struct {
		TS     int64  `json:"ts"`
		Engine string `json:"engine"`
		Stage  string `json:"stage"`
		Iter   int    `json:"iter"`
		Part   int    `json:"part"`
		DurNS  int64  `json:"dur_ns"`
	}
	var e ev
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if e.Engine != "graphz" || e.Stage != StageDrain || e.Iter != 3 || e.Part != 1 {
		t.Errorf("span 0 = %+v", e)
	}
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if e.TS != 12345 || e.DurNS != 67 || e.Stage != StageWorker {
		t.Errorf("span 1 = %+v", e)
	}
}

func TestIterTableAndStageTimes(t *testing.T) {
	var st StageTimes
	st.AddStage(StageSio, time.Millisecond)
	st.AddStage(StageDispatch, time.Millisecond)
	st.AddStage(StageWorker, 2*time.Millisecond)
	st.AddStage(StageDrain, time.Millisecond)
	st.AddStage("bogus", time.Hour) // dropped
	if want := (StageTimes{time.Millisecond, time.Millisecond, 2 * time.Millisecond, time.Millisecond}); st != want {
		t.Errorf("stage times = %+v, want %+v", st, want)
	}

	rows := []IterStats{
		{Iteration: 0, MessagesInline: 10, DeviceReadBytes: 4096},
		{Iteration: 1, MessagesBuffered: 3, BlocksSkipped: 2},
	}
	out := FormatIterTable(rows)
	for _, want := range []string{"iter", "inline", "blkskip", "4096"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 3 {
		t.Errorf("table has %d lines, want header + 2 rows", len(lines))
	}
	if FormatIterTable(nil) != "" {
		t.Error("empty rows should render empty")
	}
}

func TestMetricsServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Add(9)
	srv, err := StartMetricsServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "hits_total 9") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index unexpected:\n%.200s", body)
	}
}
