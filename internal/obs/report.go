package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// ReportSchemaVersion is the current RunReport schema. Readers accept
// any version up to their own and reject newer artifacts, so an old
// graphz-report never silently misreads a new report.
const ReportSchemaVersion = 1

// RunReport is the versioned post-run profiling artifact: everything the
// live registry, tracer, heatmap, and device knew at the end of a run,
// folded into one JSON document that graphz-report can analyze and diff
// (docs/OBSERVABILITY.md, "Run reports").
type RunReport struct {
	Schema int `json:"schema"`

	// Run identity.
	Engine      string            `json:"engine,omitempty"`
	Algo        string            `json:"algo,omitempty"`
	Device      string            `json:"device,omitempty"`
	BudgetBytes int64             `json:"budget_bytes,omitempty"`
	Config      map[string]string `json:"config,omitempty"`

	// Final counter values. (Engines register counters only; the gauges
	// and histograms sections older builds wrote are ignored on read.)
	Counters map[string]int64 `json:"counters,omitempty"`

	// Per-iteration rows.
	Iterations []IterStats `json:"iterations,omitempty"`

	// Memory-budget accounting timeline, one sample per iteration.
	Memory []MemSample `json:"memory,omitempty"`

	// Stage wall time aggregated from spans, per (engine, stage,
	// iteration, partition).
	Stages []StageAgg `json:"stages,omitempty"`

	// Block-level IO heatmap cells.
	Blocks []BlockHeat `json:"blocks,omitempty"`

	// Per-file physical device traffic.
	Files map[string]FileIO `json:"files,omitempty"`
}

// MemSample is one point of the memory-budget accounting timeline,
// sampled at an iteration boundary. ResidentBytes sums the accounted
// classes; BudgetBytes-ResidentBytes is the headroom the planner left.
type MemSample struct {
	Iteration        int   `json:"iteration"`
	BudgetBytes      int64 `json:"budget_bytes"`
	IndexBytes       int64 `json:"index_bytes"`        // vertex index
	TableBytes       int64 `json:"table_bytes"`        // codec per-block offset table
	PipelineBytes    int64 `json:"pipeline_bytes"`     // Sio prefetch + staging buffers
	VertexStateBytes int64 `json:"vertex_state_bytes"` // resident partition states (high-water)
	AdjCacheBytes    int64 `json:"adj_cache_bytes"`    // resident adjacency cache
	MsgBufferBytes   int64 `json:"msg_buffer_bytes"`   // in-memory message buffers (capacity)
	SpillBytes       int64 `json:"spill_bytes"`        // spilled messages on the device
	BitmapBytes      int64 `json:"bitmap_bytes"`       // selective-scheduling bitmap
}

// ResidentBytes sums the budget-accounted classes of the sample (spill
// lives on the device and is excluded, mirroring the planner).
func (m MemSample) ResidentBytes() int64 {
	return m.IndexBytes + m.TableBytes + m.PipelineBytes +
		m.VertexStateBytes + m.AdjCacheBytes + m.MsgBufferBytes + m.BitmapBytes
}

// StageAgg is the wall time of one (engine, stage, iteration, partition)
// cell, aggregated over its spans.
type StageAgg struct {
	Engine string `json:"engine"`
	Stage  string `json:"stage"`
	Iter   int    `json:"iter"`
	Part   int    `json:"part"`
	Spans  int64  `json:"spans"`
	NS     int64  `json:"ns"`
}

// FileIO is one file's physical device traffic. It mirrors
// storage.Stats but lives here so the report schema has no storage
// dependency.
type FileIO struct {
	ReadOps    int64 `json:"read_ops,omitempty"`
	ReadBytes  int64 `json:"read_bytes,omitempty"`
	WriteOps   int64 `json:"write_ops,omitempty"`
	WriteBytes int64 `json:"write_bytes,omitempty"`
	Seeks      int64 `json:"seeks,omitempty"`
	CacheHits  int64 `json:"cache_hits,omitempty"`
}

// ReportInfo carries the run identity BuildReport stamps into the
// report.
type ReportInfo struct {
	Engine      string
	Algo        string
	Device      string
	BudgetBytes int64
	Config      map[string]string
}

// BuildReport assembles a RunReport from a finished run's registry
// (counters, iteration rows, memory samples, heatmap), tracer (span
// aggregation — a collecting tracer keeps its events in memory), and
// per-file device traffic. Any of reg, tr, and files may be nil/empty;
// the corresponding sections are omitted.
func BuildReport(info ReportInfo, reg *Registry, tr *Tracer, files map[string]FileIO) *RunReport {
	rep := &RunReport{
		Schema:      ReportSchemaVersion,
		Engine:      info.Engine,
		Algo:        info.Algo,
		Device:      info.Device,
		BudgetBytes: info.BudgetBytes,
	}
	if len(info.Config) > 0 {
		rep.Config = info.Config
	}
	if reg != nil {
		if c := reg.Counters(); len(c) > 0 {
			rep.Counters = c
		}
		rep.Iterations, rep.Memory = reg.Iters(), reg.MemSamples()
		rep.Blocks = reg.Heatmap().Cells()
	}
	if tr != nil {
		rep.Stages = AggregateSpans(tr.Events())
	}
	if len(files) > 0 {
		rep.Files = make(map[string]FileIO, len(files))
		for n, io := range files {
			rep.Files[n] = io
		}
	}
	return rep
}

// AggregateSpans folds span events into per-(engine, stage, iteration,
// partition) cells, sorted by (engine, stage, iter, part).
func AggregateSpans(events []SpanEvent) []StageAgg {
	if len(events) == 0 {
		return nil
	}
	type key struct {
		engine, stage string
		iter, part    int
	}
	cells := make(map[key]*StageAgg)
	for _, ev := range events {
		k := key{engine: ev.Engine, stage: ev.Stage, iter: ev.Iter, part: ev.Part}
		c, ok := cells[k]
		if !ok {
			c = &StageAgg{Engine: ev.Engine, Stage: ev.Stage, Iter: ev.Iter, Part: ev.Part}
			cells[k] = c
		}
		c.Spans++
		c.NS += ev.DurNS
	}
	out := make([]StageAgg, 0, len(cells))
	for _, c := range cells {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Engine != b.Engine {
			return a.Engine < b.Engine
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Iter != b.Iter {
			return a.Iter < b.Iter
		}
		return a.Part < b.Part
	})
	return out
}

// StageTotals sums the report's span-aggregated wall time per stage.
func (r *RunReport) StageTotals() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range r.Stages {
		out[s.Stage] += s.NS
	}
	return out
}

// PartitionTotals sums the report's span-aggregated wall time of one
// stage per partition.
func (r *RunReport) PartitionTotals(stage string) map[int]int64 {
	out := make(map[int]int64)
	for _, s := range r.Stages {
		if s.Stage == stage {
			out[s.Part] += s.NS
		}
	}
	return out
}

// Marshal renders the report as indented JSON with a trailing newline.
func (r *RunReport) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the report to path.
func (r *RunReport) WriteFile(path string) error {
	data, err := r.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ParseReport decodes one report, validating the schema version.
func ParseReport(data []byte) (*RunReport, error) {
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: parsing run report: %w", err)
	}
	if r.Schema < 1 {
		return nil, fmt.Errorf("obs: not a run report (schema %d)", r.Schema)
	}
	if r.Schema > ReportSchemaVersion {
		return nil, fmt.Errorf("obs: run report schema %d is newer than supported %d", r.Schema, ReportSchemaVersion)
	}
	return &r, nil
}

// ReadReportFile reads and parses the report at path.
func ReadReportFile(path string) (*RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := ParseReport(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
