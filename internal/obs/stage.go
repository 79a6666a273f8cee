package obs

import (
	"fmt"
	"strings"
	"time"
)

// The pipeline stage names shared by every engine's spans and counters,
// mirroring the paper's runtime components: Sio (block reads off the
// device), Dispatcher (block parsing), Worker (vertex updates), and
// MsgManager (pending-message drain). The analog engines reuse the same
// names for their closest equivalents so comparisons stay
// apples-to-apples.
const (
	StageSio      = "sio"
	StageDispatch = "dispatch"
	StageWorker   = "worker"
	StageDrain    = "drain"
)

// Off-pipeline stages: durability snapshots (PR 3), their restore path,
// and the block codec's decode step (PR 5, a sub-span of dispatch).
// These carry part = -1 (checkpoint/restore span whole iterations) or
// the partition whose blocks were decoded.
const (
	StageCheckpoint = "checkpoint"
	StageRestore    = "restore"
	StageDecode     = "decode"
)

// StageTimes is wall-clock time attributed to each pipeline stage.
type StageTimes struct {
	Sio      time.Duration
	Dispatch time.Duration
	Worker   time.Duration
	Drain    time.Duration
}

// AddStage adds d to the named stage; unknown names are dropped.
func (s *StageTimes) AddStage(stage string, d time.Duration) {
	switch stage {
	case StageSio:
		s.Sio += d
	case StageDispatch:
		s.Dispatch += d
	case StageWorker:
		s.Worker += d
	case StageDrain:
		s.Drain += d
	}
}

// StageRecorder is the stage accounting the three engines share: one call
// per finished stage emits its span and adds the duration to the
// <engine>_stage_<stage>_ns_total counter and the run total, so span sums,
// counters and Result.Stages are fed the same measured durations. Stages
// end at partition boundaries, so that is when the counters advance.
// Engine goroutine only.
type StageRecorder struct {
	On  bool       // a sink is attached: gates the engines' time.Now calls
	Reg *Registry  // nil-safe
	Tr  *Tracer    // nil-safe
	Run StageTimes // whole run so far; the engines' Result.Stages

	engine string
	ns     map[string]*Counter // nil without a registry: every lookup is the no-op nil counter
}

// NewStageRecorder resolves engine's four stage counters in reg.
func NewStageRecorder(engine string, reg *Registry, tr *Tracer) StageRecorder {
	r := StageRecorder{On: reg != nil || tr != nil, Reg: reg, Tr: tr, engine: engine}
	if reg != nil {
		r.ns = make(map[string]*Counter, 4)
		for _, st := range []string{StageSio, StageDispatch, StageWorker, StageDrain} {
			r.ns[st] = reg.Counter(engine + "_stage_" + st + "_ns_total")
		}
	}
	return r
}

// Record accounts d of one pipeline stage to (iter, part); start anchors
// the span.
func (r *StageRecorder) Record(stage string, iter, part int, start time.Time, d time.Duration) {
	r.Tr.Emit(r.engine, stage, iter, part, start, d)
	r.ns[stage].Add(int64(d))
	r.Run.AddStage(stage, d)
}

// Since records the stage that ran from start until now and returns now,
// the next stage's start.
func (r *StageRecorder) Since(stage string, iter, part int, start time.Time) time.Time {
	now := time.Now()
	r.Record(stage, iter, part, start, now.Sub(start))
	return now
}

// IterStats is one iteration's observability breakdown: message routing
// counts, selective scheduling and device traffic deltas. (Per-iteration
// stage time is in the run report's span-aggregated stages.) Engines
// record one row per iteration via Registry.RecordIter.
type IterStats struct {
	Iteration int

	// Message routing (GraphZ engine; zero for the analogs).
	MessagesInline   int64 // applied immediately, destination resident
	MessagesBuffered int64 // queued for a non-resident destination
	MessagesSpilled  int64 // buffered messages that reached the device

	// Selective block scheduling (zero unless enabled).
	BlocksSkipped  int64 // adjacency blocks proved inactive and skipped
	ActiveVertices int64 // schedulable vertices at the iteration boundary

	// Device traffic during the iteration (delta of storage.Stats).
	DeviceReadBytes  int64
	DeviceWriteBytes int64
	DeviceSeeks      int64
}

// FormatIterTable renders per-iteration rows as an aligned text table for
// the post-run summary.
func FormatIterTable(rows []IterStats) string {
	if len(rows) == 0 {
		return ""
	}
	header := []string{"iter", "inline", "buffered", "spilled", "blkskip", "active", "readB", "writeB", "seeks"}
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Iteration),
			fmt.Sprintf("%d", r.MessagesInline),
			fmt.Sprintf("%d", r.MessagesBuffered),
			fmt.Sprintf("%d", r.MessagesSpilled),
			fmt.Sprintf("%d", r.BlocksSkipped),
			fmt.Sprintf("%d", r.ActiveVertices),
			fmt.Sprintf("%d", r.DeviceReadBytes),
			fmt.Sprintf("%d", r.DeviceWriteBytes),
			fmt.Sprintf("%d", r.DeviceSeeks),
		})
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range cells {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
