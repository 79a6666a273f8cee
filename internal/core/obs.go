package core

import (
	"sync/atomic"
	"time"

	"graphz/internal/checkpoint"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// engineName labels the core engine's spans and metrics.
const engineName = "graphz"

// counters is the engine's one ledger: every cumulative count it keeps,
// each written on the engine goroutine as a plain += at the one site
// where the fact happens (send per message, sendRecords once per call;
// on the spot, c.spot per call, folded once a Worker pass).
// Everything else is a view: Result is a projection at finish, the
// iteration row is the delta across an iteration (recordIter), the registry
// receives current − last published through ledgerMetrics (publish),
// modeled compute is the partition's delta priced by the cost table
// (chargeLedger), and the embedded checkpoint.Counters is the manifest's
// copy as is. Stage wall time is the one family kept beside it, in the
// StageRecorder the three engines share. Comparable.
type counters struct {
	// The counts a checkpoint carries: a resumed run continues them, so
	// its Result and registry describe the whole logical run.
	checkpoint.Counters

	// This process only.
	edges     int64 // adjacency entries handed to Update (priced by chargeLedger)
	spillErrs int64 // spill failures (the first aborts the run)
	spot      int64 // messages applied on the spot this Worker pass, folded into Sent, Applied and Inline at its end

	// Pipeline activity, folded from pipeStats once per partition and so
	// counted only while a sink is attached.
	adjHits       int64 // partitions served from the resident adjacency cache
	codecRawBytes int64 // decoded adjacency bytes produced (4 per entry)
	codecEncBytes int64 // encoded adjacency bytes read off the device
	codecDecodeNS int64 // time spent in Codec.DecodeBlock

	ckpts     int64 // checkpoints written
	ckptBytes int64 // bytes persisted across all checkpoints
	ckptNS    int64 // wall time spent writing checkpoints
}

// ledgerMetrics is the one name table: every ledger field the registry
// exposes. Adding or removing a metric is one row here (and one in
// docs/OBSERVABILITY.md, which TestMetricCatalog holds to it, consumer
// included).
var ledgerMetrics = [...]struct {
	name  string
	field func(*counters) *int64
}{
	{"graphz_messages_inline_total", func(c *counters) *int64 { return &c.Inline }},
	{"graphz_messages_buffered_total", func(c *counters) *int64 { return &c.Buffered }},
	{"graphz_messages_spilled_total", func(c *counters) *int64 { return &c.Spilled }},
	{"graphz_messages_spill_errors_total", func(c *counters) *int64 { return &c.spillErrs }},
	{"graphz_blocks_scanned_total", func(c *counters) *int64 { return &c.BlocksScanned }},
	{"graphz_blocks_skipped_total", func(c *counters) *int64 { return &c.BlocksSkipped }},
	{"graphz_adjcache_hits_total", func(c *counters) *int64 { return &c.adjHits }},
	{"graphz_codec_bytes_raw_total", func(c *counters) *int64 { return &c.codecRawBytes }},
	{"graphz_codec_bytes_encoded_total", func(c *counters) *int64 { return &c.codecEncBytes }},
	{"graphz_codec_decode_ns_total", func(c *counters) *int64 { return &c.codecDecodeNS }},
	{"graphz_checkpoint_total", func(c *counters) *int64 { return &c.ckpts }},
	{"graphz_checkpoint_bytes_total", func(c *counters) *int64 { return &c.ckptBytes }},
	{"graphz_checkpoint_ns_total", func(c *counters) *int64 { return &c.ckptNS }},
}

// engineObs is the engine's observability sinks. Every instrument is
// nil-safe, so it is populated unconditionally; the recorder's On gates
// the timing code (time.Now calls, per-iteration rows) that would
// otherwise cost even with no sink attached.
type engineObs struct {
	obs.StageRecorder
	heat *obs.BlockHeatmap // block-level IO attribution (nil-safe)

	ledger [len(ledgerMetrics)]*obs.Counter // ledgerMetrics' instruments, written by publish only

	// Facts outside the iteration loop, with no Result or row twin: each
	// keeps its one direct write.
	restores   *obs.Counter // successful checkpoint restorations
	removeErrs *obs.Counter // failed runtime-file removals
	semRuns    *obs.Counter // finished runs of the semi-external (one-partition) case
}

func newEngineObs(reg *obs.Registry, tr *obs.Tracer) engineObs {
	eo := engineObs{
		StageRecorder: obs.NewStageRecorder(engineName, reg, tr),
		heat:          reg.Heatmap(),
		restores:      reg.Counter("graphz_restore_total"),
		removeErrs:    reg.Counter("graphz_remove_errors_total"),
		semRuns:       reg.Counter("graphz_sem_runs_total"),
	}
	for i, m := range ledgerMetrics {
		eo.ledger[i] = reg.Counter(m.name)
	}
	return eo
}

// publish advances the registry to the ledger: each instrument receives
// what its field gained since the last call. It runs after every
// partition and on every exit of loop — error and cancellation included —
// so a scrape is at most one partition behind and an aborted run's tail
// is not lost; a resumed run's restored baseline goes out in the first
// call, so a finished run's registry equals its Result, fresh or resumed.
func (e *Engine[V, M]) publish() {
	if e.eo.Reg == nil || e.c == e.published {
		return
	}
	for i, m := range ledgerMetrics {
		e.eo.ledger[i].Add(*m.field(&e.c) - *m.field(&e.published))
	}
	e.published = e.c
}

// recordIter closes iteration iter: its row is the ledger's delta since
// before plus the device's since devBefore, followed by the iteration's
// memory sample. It runs on aborted iterations too, so the rows always sum
// to the ledger.
func (e *Engine[V, M]) recordIter(iter int, before counters, devBefore storage.Stats) {
	c, io := e.c, e.dev.Stats().Sub(devBefore)
	row := obs.IterStats{
		Iteration:        iter,
		MessagesInline:   c.Inline - before.Inline,
		MessagesBuffered: c.Buffered - before.Buffered,
		MessagesSpilled:  c.Spilled - before.Spilled,
		BlocksSkipped:    c.BlocksSkipped - before.BlocksSkipped,
		DeviceReadBytes:  io.ReadBytes,
		DeviceWriteBytes: io.WriteBytes,
		DeviceSeeks:      io.Seeks,
	}
	if e.sel != nil {
		row.ActiveVertices = e.sel.count
	}
	e.eo.Reg.RecordIter(row)
	e.sampleMemory(iter)
}

// pipeStats accumulates one partition's Sio/Dispatcher pipeline activity.
// The producer (the prefetch goroutine) writes the atomic fields — it
// reads, decodes and dispatches — and the engine goroutine reads them.
// cacheHit stays plain — it is written and read only on the engine
// goroutine.
type pipeStats struct {
	readNS atomic.Int64 // producer: device read time

	dispatchNS atomic.Int64 // block parse (Dispatcher) time
	decodeNS   atomic.Int64 // block codec decode time (⊆ dispatchNS)
	codecRawB  atomic.Int64 // decoded bytes produced
	codecEncB  atomic.Int64 // encoded bytes consumed

	cacheHit bool // partition served from the resident adjacency without a fill

	// Block-heat attribution, set once at construction and read by the
	// producer goroutine (the heatmap itself is mutex-guarded); nil heat
	// disables it all.
	heat     *obs.BlockHeatmap
	heatFile string
}

// heatRead attributes `bytes` bytes the prefetcher read to entry block b.
// Safe on a nil heatmap.
func (ps *pipeStats) heatRead(b, bytes int64) {
	if ps.heat != nil {
		ps.heat.AddRead(ps.heatFile, b, bytes)
	}
}

// heatDecode attributes ns nanoseconds of codec decode time to entry
// block b.
func (ps *pipeStats) heatDecode(b, ns int64) {
	if ps.heat != nil {
		ps.heat.AddDecode(ps.heatFile, b, ns)
	}
}

// recordPipe folds a finished partition's pipeline stats into the ledger
// and the stage recorder. partStart anchors the accumulated-duration
// spans.
func (e *Engine[V, M]) recordPipe(ps *pipeStats, iter, p int, partStart time.Time) {
	e.eo.Record(obs.StageSio, iter, p, partStart, time.Duration(ps.readNS.Load()))
	e.eo.Record(obs.StageDispatch, iter, p, partStart, time.Duration(ps.dispatchNS.Load()))
	if ps.cacheHit {
		e.c.adjHits++
	}
	if raw := ps.codecRawB.Load(); raw > 0 {
		dec := ps.decodeNS.Load()
		e.c.codecRawBytes += raw
		e.c.codecEncBytes += ps.codecEncB.Load()
		e.c.codecDecodeNS += dec
		if dec > 0 {
			// The decode sub-span mirrors the counter exactly, so report
			// stage totals reconcile with graphz_codec_decode_ns_total.
			e.eo.Tr.Emit(engineName, obs.StageDecode, iter, p, partStart, time.Duration(dec))
		}
	}
}

// newPipeStats builds one partition's pipeline accumulator with the
// heat-attribution fields resolved.
func (e *Engine[V, M]) newPipeStats() *pipeStats {
	return &pipeStats{heat: e.eo.heat, heatFile: e.layout.EdgesFile()}
}

// vstateBlock maps a vertex to its DefaultBlockSize byte block of the
// vertex-state file — the unit drain fan-in is attributed at.
func (e *Engine[V, M]) vstateBlock(dst graph.VertexID) int64 {
	return int64(dst) * int64(e.vsize) / storage.DefaultBlockSize
}

// flushDrainHeat folds one drain's fan-in counts, one per vstate block
// from block first on, into the heatmap.
func (e *Engine[V, M]) flushDrainHeat(first int64, counts []int64) {
	file := e.vstateFile()
	for i, n := range counts {
		if n > 0 {
			e.eo.heat.AddDrain(file, first+int64(i), n)
		}
	}
}

// sampleMemory records one memory-budget accounting sample at an
// iteration boundary: what is resident right now, per accounted class,
// against the configured budget (docs/OBSERVABILITY.md, "Run reports").
func (e *Engine[V, M]) sampleMemory(iter int) {
	if e.eo.Reg == nil {
		return
	}
	s := e.residentFloor()
	s.Iteration = iter
	s.BudgetBytes = e.opts.MemoryBudget
	s.VertexStateBytes = int64(cap(e.verts)) * int64(e.vsize) // high-water partition
	if e.opts.SharedAdjacency == nil {
		// A handed-in cache is its owner's memory, not this budget's.
		s.AdjCacheBytes = int64(len(e.resident.data)) * 4
	}
	for p, buf := range e.msgBufs {
		s.MsgBufferBytes += int64(cap(buf))
		// Size is an uncharged catalog lookup; a missing file reads as
		// zero spill (it only happens mid-teardown).
		if sz, err := e.dev.Size(e.msgFile(p)); err == nil {
			s.SpillBytes += sz
		}
	}
	if e.sel != nil {
		s.BitmapBytes = 8 * int64(len(e.sel.words)+len(e.sel.sum)) // the bits and their summary
	}
	e.eo.Reg.RecordMem(s)
}

// DeviceFileIO snapshots a device's per-file traffic in the report's
// storage-free FileIO form. The helper lives here (not in obs) so the
// obs schema stays free of storage imports.
func DeviceFileIO(dev *storage.Device) map[string]obs.FileIO {
	if dev == nil {
		return nil
	}
	stats := dev.FileStats()
	out := make(map[string]obs.FileIO, len(stats))
	for name, st := range stats {
		out[name] = obs.FileIO{
			ReadOps:    st.ReadOps,
			ReadBytes:  st.ReadBytes,
			WriteOps:   st.WriteOps,
			WriteBytes: st.WriteBytes,
			Seeks:      st.Seeks,
			CacheHits:  st.CacheHits,
		}
	}
	return out
}
