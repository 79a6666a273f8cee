package obs

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// buildSampleReport assembles a report through the real instruments — the
// same path BuildReport takes after a run — so marshal round-trips exercise
// every section.
func buildSampleReport() *RunReport {
	reg := NewRegistry()
	reg.Counter("graphz_messages_inline_total").Add(100)
	reg.Counter("graphz_messages_spilled_total").Add(7)
	reg.RecordIter(IterStats{Iteration: 0, MessagesInline: 60})
	reg.Counter("graphz_messages_inline_total").Add(50)
	reg.RecordIter(IterStats{Iteration: 1, MessagesInline: 40})
	reg.RecordMem(MemSample{Iteration: 0, BudgetBytes: 1 << 20, IndexBytes: 4096, VertexStateBytes: 2048})
	reg.RecordMem(MemSample{Iteration: 1, BudgetBytes: 1 << 20, IndexBytes: 4096, VertexStateBytes: 2048, SpillBytes: 512})
	reg.Heatmap().AddRead("graphz.edges", 0, 1024)
	reg.Heatmap().AddRead("graphz.edges", 1, 2048)
	reg.Heatmap().AddDecode("graphz.edges", 0, 5000)
	reg.Heatmap().AddDrain("graphz.vstate", 0, 12)

	tr := NewCollectingTracer(nil)
	t0 := time.Unix(0, 1_000)
	tr.Emit("graphz", StageSio, 0, 0, t0, 100*time.Microsecond)
	tr.Emit("graphz", StageSio, 0, 1, t0, 150*time.Microsecond)
	tr.Emit("graphz", StageWorker, 0, 0, t0, 300*time.Microsecond)
	tr.Emit("graphz", StageWorker, 1, 0, t0, 200*time.Microsecond)
	tr.Emit("graphz", StageCheckpoint, 1, -1, t0, 50*time.Microsecond)

	return BuildReport(ReportInfo{
		Engine:      "graphz",
		Algo:        "pagerank",
		Device:      "ssd",
		BudgetBytes: 1 << 20,
		Config:      map[string]string{"scale": "small"},
	}, reg, tr, map[string]FileIO{
		"graphz.edges": {ReadOps: 9, ReadBytes: 3072, Seeks: 1},
	})
}

func TestBuildReportSections(t *testing.T) {
	rep := buildSampleReport()
	if rep.Schema != ReportSchemaVersion {
		t.Fatalf("schema = %d, want %d", rep.Schema, ReportSchemaVersion)
	}
	if rep.Counters["graphz_messages_inline_total"] != 150 {
		t.Errorf("inline counter = %d, want 150", rep.Counters["graphz_messages_inline_total"])
	}
	if len(rep.Iterations) != 2 {
		t.Fatalf("iterations = %d, want 2", len(rep.Iterations))
	}
	// The rows carry each iteration's own counts; the cumulative value is
	// the counters section's.
	if a, b := rep.Iterations[0].MessagesInline, rep.Iterations[1].MessagesInline; a != 60 || b != 40 {
		t.Errorf("row inline counts = %d, %d, want 60, 40", a, b)
	}

	if len(rep.Memory) != 2 {
		t.Fatalf("memory samples = %d, want 2", len(rep.Memory))
	}
	if got := rep.Memory[0].ResidentBytes(); got != 4096+2048 {
		t.Errorf("resident bytes = %d, want %d", got, 4096+2048)
	}
	if rep.Memory[1].SpillBytes != 512 {
		t.Errorf("spill bytes = %d, want 512", rep.Memory[1].SpillBytes)
	}

	// Heatmap cells arrive sorted by (file, block).
	if len(rep.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3: %+v", len(rep.Blocks), rep.Blocks)
	}
	for i := 1; i < len(rep.Blocks); i++ {
		a, b := rep.Blocks[i-1], rep.Blocks[i]
		if a.File > b.File || (a.File == b.File && a.Block >= b.Block) {
			t.Errorf("blocks out of order at %d: %+v then %+v", i, a, b)
		}
	}
	if c := rep.Blocks[0]; c.File != "graphz.edges" || c.Block != 0 || c.ReadBytes != 1024 || c.DecodeNS != 5000 {
		t.Errorf("block 0 cell = %+v", c)
	}

	if rep.Files["graphz.edges"].ReadBytes != 3072 {
		t.Errorf("file IO = %+v", rep.Files["graphz.edges"])
	}
}

func TestReportMarshalRoundTrip(t *testing.T) {
	rep := buildSampleReport()
	data, err := rep.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := ParseReport(data)
	if err != nil {
		t.Fatalf("ParseReport: %v", err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, rep)
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	rep := buildSampleReport()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadReportFile(path)
	if err != nil {
		t.Fatalf("ReadReportFile: %v", err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Errorf("file round trip mismatch")
	}
}

func TestParseReportRejectsBadSchema(t *testing.T) {
	if _, err := ParseReport([]byte(`{"engine":"graphz"}`)); err == nil || !strings.Contains(err.Error(), "not a run report") {
		t.Errorf("schema 0: err = %v, want not-a-run-report", err)
	}
	if _, err := ParseReport([]byte(`{"schema":99}`)); err == nil || !strings.Contains(err.Error(), "newer than supported") {
		t.Errorf("schema 99: err = %v, want newer-than-supported", err)
	}
	if _, err := ParseReport([]byte(`not json`)); err == nil {
		t.Error("garbage input: want error")
	}
}

// TestParseReportLegacySections: a schema-1 report written before the
// per-iteration snapshots and the gauges/histograms sections were dropped
// still parses; the dropped keys are ignored.
func TestParseReportLegacySections(t *testing.T) {
	rep, err := ParseReport([]byte(`{"schema":1,"counters":{"c":3},"gauges":{"g":1},
		"histograms":{"h":{"count":1,"sum_ns":5}},
		"iterations":[{"Iteration":0,"MessagesInline":7,"snapshot":{"c":3}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters["c"] != 3 || len(rep.Iterations) != 1 || rep.Iterations[0].MessagesInline != 7 {
		t.Errorf("legacy report parsed as %+v", rep)
	}
}

func TestBuildReportEmptySources(t *testing.T) {
	rep := BuildReport(ReportInfo{Engine: "graphz"}, nil, nil, nil)
	if rep.Schema != ReportSchemaVersion || rep.Engine != "graphz" {
		t.Fatalf("identity = %+v", rep)
	}
	if rep.Counters != nil || rep.Iterations != nil || rep.Memory != nil ||
		rep.Stages != nil || rep.Blocks != nil || rep.Files != nil {
		t.Errorf("empty sources must stay nil: %+v", rep)
	}
	// An empty registry and tracer likewise contribute nothing.
	rep = BuildReport(ReportInfo{}, NewRegistry(), NewCollectingTracer(nil), nil)
	if rep.Counters != nil || rep.Stages != nil || rep.Blocks != nil {
		t.Errorf("fresh registry/tracer must contribute nothing: %+v", rep)
	}
}

func TestAggregateSpans(t *testing.T) {
	events := []SpanEvent{
		{Engine: "graphz", Stage: StageWorker, Iter: 1, Part: 0, DurNS: 5},
		{Engine: "graphz", Stage: StageSio, Iter: 0, Part: 1, DurNS: 10},
		{Engine: "graphz", Stage: StageSio, Iter: 0, Part: 1, DurNS: 20},
		{Engine: "graphz", Stage: StageSio, Iter: 0, Part: 0, DurNS: 7},
	}
	got := AggregateSpans(events)
	want := []StageAgg{
		{Engine: "graphz", Stage: StageSio, Iter: 0, Part: 0, Spans: 1, NS: 7},
		{Engine: "graphz", Stage: StageSio, Iter: 0, Part: 1, Spans: 2, NS: 30},
		{Engine: "graphz", Stage: StageWorker, Iter: 1, Part: 0, Spans: 1, NS: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AggregateSpans =\n %+v\nwant\n %+v", got, want)
	}
	if AggregateSpans(nil) != nil {
		t.Error("AggregateSpans(nil) must be nil")
	}
}

func TestStageAndPartitionTotals(t *testing.T) {
	rep := buildSampleReport()
	tot := rep.StageTotals()
	if tot[StageSio] != int64(250*time.Microsecond) {
		t.Errorf("sio total = %d", tot[StageSio])
	}
	if tot[StageWorker] != int64(500*time.Microsecond) {
		t.Errorf("worker total = %d", tot[StageWorker])
	}
	if tot[StageCheckpoint] != int64(50*time.Microsecond) {
		t.Errorf("checkpoint total = %d", tot[StageCheckpoint])
	}
	parts := rep.PartitionTotals(StageSio)
	if parts[0] != int64(100*time.Microsecond) || parts[1] != int64(150*time.Microsecond) {
		t.Errorf("sio partition totals = %v", parts)
	}
}

func TestHeatmapNilSafety(t *testing.T) {
	var h *BlockHeatmap
	h.AddRead("f", 0, 1)
	h.AddDecode("f", 0, 1)
	h.AddDrain("f", 0, 1)
	if h.Cells() != nil {
		t.Error("nil heatmap Cells() must be nil")
	}
	var reg *Registry
	if reg.Heatmap() != nil {
		t.Error("nil registry Heatmap() must be nil")
	}
}

func TestCollectingTracerEvents(t *testing.T) {
	tr := NewCollectingTracer(nil)
	t0 := time.Unix(10, 500)
	tr.Emit("graphz", StageDrain, 3, 2, t0, 42*time.Nanosecond)
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	want := SpanEvent{TS: t0.UnixNano(), Engine: "graphz", Stage: StageDrain, Iter: 3, Part: 2, DurNS: 42}
	if events[0] != want {
		t.Errorf("event = %+v, want %+v", events[0], want)
	}
	if tr.Spans() != 1 || tr.Dropped() != 0 {
		t.Errorf("spans=%d dropped=%d", tr.Spans(), tr.Dropped())
	}
	if err := tr.Flush(); err != nil {
		t.Errorf("collect-only Flush: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("collect-only Close: %v", err)
	}
	// A plain tracer collects nothing.
	plain := NewTracer(&strings.Builder{})
	plain.Emit("graphz", StageSio, 0, 0, t0, time.Nanosecond)
	if plain.Events() != nil {
		t.Error("non-collecting tracer must not retain events")
	}
}
