package core

import (
	"sync/atomic"
	"time"

	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// engineName labels the core engine's spans and metrics.
const engineName = "graphz"

// engineObs bundles the engine's resolved observability instruments. All
// instruments are nil-safe, so the struct is populated unconditionally;
// `on` gates the timing code (time.Now calls, per-iteration rows) that
// would otherwise cost even with no sink attached.
type engineObs struct {
	on   bool
	reg  *obs.Registry
	tr   *obs.Tracer
	heat *obs.BlockHeatmap // block-level IO attribution (nil-safe)

	inline    *obs.Counter // messages applied immediately (ordered dynamic)
	buffered  *obs.Counter // messages queued for a non-resident destination
	spilled   *obs.Counter // buffered messages written to the device
	spillErrs *obs.Counter // spill failures (first aborts the run, rest are counted)

	sioBlocks *obs.Counter // adjacency blocks prefetched off the device
	sioStalls *obs.Counter // Worker waits on an empty prefetch queue
	adjHits   *obs.Counter // partitions served from the resident adjacency cache

	// Adjacency-codec instruments (DOS v2; docs/FORMAT.md §Version 2).
	// All zero on fixed-entry layouts — the raw path never decodes.
	codecRawBytes *obs.Counter // decoded adjacency bytes produced (4 per entry)
	codecEncBytes *obs.Counter // encoded adjacency bytes read off the device
	codecDecodeNS *obs.Counter // time spent in Codec.DecodeBlock

	sioNS      *obs.Counter // cumulative stage time, nanoseconds
	dispatchNS *obs.Counter
	workerNS   *obs.Counter
	drainNS    *obs.Counter

	drains *obs.Counter // drains that applied at least one message

	// semRuns counts finished runs of the semi-external case: one
	// partition, states pinned (Engine.SemiExternal). With dynamic messages
	// such a run's drain instruments all stay 0 — nothing was ever pending.
	semRuns *obs.Counter

	// Worker sub-stage instruments for the chunked parallel Worker
	// (Options.WorkerParallelism > 1); all zero on the sequential path.
	workerChunks   *obs.Counter // chunks executed speculatively
	workerReexecs  *obs.Counter // chunks invalidated and re-executed at commit
	workerSpecNS   *obs.Counter // summed speculative-execution time across workers
	workerCommitNS *obs.Counter // ordered commit (validate/replay/re-execute) time

	workerHist *obs.Histogram // per-partition worker duration
	drainHist  *obs.Histogram // per-partition drain duration

	// Selective-scheduling instruments (Options.SelectiveScheduling;
	// DESIGN.md §9).
	blocksScanned *obs.Counter // adjacency blocks the block scheduler read
	blocksSkipped *obs.Counter // adjacency blocks it proved inactive and skipped
	partsSkipped  *obs.Counter // whole partitions skipped (no bits, no messages)
	drainSkipped  *obs.Counter // drains skipped for partitions with nothing pending
	activeVerts   *obs.Gauge   // schedulable vertices at the last iteration boundary

	// Durability instruments (Options.Checkpoint; docs/DURABILITY.md).
	ckpts      *obs.Counter   // checkpoints written
	ckptBytes  *obs.Counter   // bytes persisted across all checkpoints
	ckptNS     *obs.Counter   // wall time spent writing checkpoints
	restores   *obs.Counter   // successful Resume restorations
	restoreNS  *obs.Counter   // wall time spent restoring
	removeErrs *obs.Counter   // failed runtime-file removals
	ckptHist   *obs.Histogram // per-checkpoint write duration
}

func newEngineObs(reg *obs.Registry, tr *obs.Tracer) engineObs {
	return engineObs{
		on:   reg != nil || tr != nil,
		reg:  reg,
		tr:   tr,
		heat: reg.Heatmap(),

		inline:    reg.Counter("graphz_messages_inline_total"),
		buffered:  reg.Counter("graphz_messages_buffered_total"),
		spilled:   reg.Counter("graphz_messages_spilled_total"),
		spillErrs: reg.Counter("messages_spill_errors"),

		sioBlocks: reg.Counter("graphz_sio_blocks_total"),
		sioStalls: reg.Counter("graphz_sio_stalls_total"),
		adjHits:   reg.Counter("graphz_adjcache_hits_total"),

		codecRawBytes: reg.Counter("graphz_codec_bytes_raw_total"),
		codecEncBytes: reg.Counter("graphz_codec_bytes_encoded_total"),
		codecDecodeNS: reg.Counter("graphz_codec_decode_ns_total"),

		sioNS:      reg.Counter("graphz_stage_sio_ns_total"),
		dispatchNS: reg.Counter("graphz_stage_dispatch_ns_total"),
		workerNS:   reg.Counter("graphz_stage_worker_ns_total"),
		drainNS:    reg.Counter("graphz_stage_drain_ns_total"),

		drains: reg.Counter("graphz_drain_serial_total"),

		semRuns: reg.Counter("graphz_sem_runs_total"),

		workerChunks:   reg.Counter("graphz_worker_chunks_total"),
		workerReexecs:  reg.Counter("graphz_worker_chunk_reexecs_total"),
		workerSpecNS:   reg.Counter("graphz_stage_worker_spec_ns_total"),
		workerCommitNS: reg.Counter("graphz_stage_worker_commit_ns_total"),

		workerHist: reg.Histogram("graphz_worker_partition_ns"),
		drainHist:  reg.Histogram("graphz_drain_partition_ns"),

		blocksScanned: reg.Counter("graphz_blocks_scanned_total"),
		blocksSkipped: reg.Counter("graphz_blocks_skipped_total"),
		partsSkipped:  reg.Counter("graphz_partitions_skipped_total"),
		drainSkipped:  reg.Counter("graphz_drain_skipped_total"),
		activeVerts:   reg.Gauge("graphz_active_vertices"),

		ckpts:      reg.Counter("graphz_checkpoint_total"),
		ckptBytes:  reg.Counter("graphz_checkpoint_bytes_total"),
		ckptNS:     reg.Counter("graphz_checkpoint_ns_total"),
		restores:   reg.Counter("graphz_restore_total"),
		restoreNS:  reg.Counter("graphz_restore_ns_total"),
		removeErrs: reg.Counter("graphz_remove_errors_total"),
		ckptHist:   reg.Histogram("graphz_checkpoint_write_ns"),
	}
}

// pipeStats accumulates one partition's Sio/Dispatcher pipeline activity.
// With the parallel Worker, one pipeStats is shared by several concurrent
// entry streams: producers (prefetch goroutines) write readNS/blocks and
// consumers (worker goroutines) write stalls/stallNS/dispatchNS, so all
// five are atomic. cacheHit stays plain — it is written and read only on
// the engine goroutine.
type pipeStats struct {
	readNS atomic.Int64 // producers: device read time
	blocks atomic.Int64 // producers: blocks handed to the queue

	stalls     atomic.Int64 // consumers: recv found the queue empty
	stallNS    atomic.Int64 // consumers: time blocked on an empty queue
	dispatchNS atomic.Int64 // consumers: block parse (Dispatcher) time

	decodeNS  atomic.Int64 // consumers: block codec decode time (⊆ dispatchNS)
	codecRawB atomic.Int64 // consumers: decoded bytes produced
	codecEncB atomic.Int64 // consumers: encoded bytes consumed

	cacheHit bool // partition served from the resident adjacency without a fill

	// Block-heat attribution, set once at construction and read by the
	// producer goroutines (the heatmap itself is mutex-guarded); nil heat
	// disables it all.
	heat     *obs.BlockHeatmap
	heatFile string
}

// heatRead attributes one prefetcher read of `bytes` bytes to entry
// block b. Safe on a nil heatmap.
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

// recordPipe folds a finished partition's pipeline stats into spans,
// counters, and the iteration row. partStart anchors the accumulated-
// duration spans.
func (e *Engine[V, M]) recordPipe(ps *pipeStats, iter, p int, partStart time.Time, row *obs.IterStats) {
	sio := time.Duration(ps.readNS.Load())
	dispatch := time.Duration(ps.dispatchNS.Load())
	stalls := ps.stalls.Load()
	e.eo.tr.Emit(engineName, obs.StageSio, iter, p, partStart, sio)
	e.eo.tr.Emit(engineName, obs.StageDispatch, iter, p, partStart, dispatch)
	e.eo.sioBlocks.Add(ps.blocks.Load())
	e.eo.sioStalls.Add(stalls)
	e.eo.sioNS.Add(int64(sio))
	e.eo.dispatchNS.Add(int64(dispatch))
	if ps.cacheHit {
		e.eo.adjHits.Inc()
	}
	if raw := ps.codecRawB.Load(); raw > 0 {
		dec := ps.decodeNS.Load()
		e.eo.codecRawBytes.Add(raw)
		e.eo.codecEncBytes.Add(ps.codecEncB.Load())
		e.eo.codecDecodeNS.Add(dec)
		e.codecRawBytes += raw
		e.codecEncBytes += ps.codecEncB.Load()
		e.codecDecodeNS += dec
		if dec > 0 {
			// The decode sub-span mirrors the counter exactly, so report
			// stage totals reconcile with graphz_codec_decode_ns_total.
			e.eo.tr.Emit(engineName, obs.StageDecode, iter, p, partStart, time.Duration(dec))
		}
	}
	e.stageTotals.Sio += sio
	e.stageTotals.Dispatch += dispatch
	if row != nil {
		row.Stages.Sio += sio
		row.Stages.Dispatch += dispatch
		row.PrefetchStalls += stalls
		if ps.cacheHit {
			row.AdjCacheHits++
		}
	}
}

// recordParallelWorker accounts the chunked Worker's sub-stages: how many
// chunks ran, how many were invalidated and re-executed, the summed
// speculative compute across workers, and the ordered-commit time.
func (e *Engine[V, M]) recordParallelWorker(chunks, reexecs, specNS, commitNS int64, row *obs.IterStats) {
	e.eo.workerChunks.Add(chunks)
	e.eo.workerReexecs.Add(reexecs)
	e.eo.workerSpecNS.Add(specNS)
	e.eo.workerCommitNS.Add(commitNS)
	if row != nil {
		row.WorkerChunks += chunks
		row.WorkerReexecs += reexecs
	}
}

// recordWorker accounts the Worker update loop of one partition.
func (e *Engine[V, M]) recordWorker(iter, p int, start time.Time, row *obs.IterStats) {
	d := time.Since(start)
	e.eo.tr.Emit(engineName, obs.StageWorker, iter, p, start, d)
	e.eo.workerNS.Add(int64(d))
	e.eo.workerHist.Observe(d)
	e.stageTotals.Worker += d
	if row != nil {
		row.Stages.Worker += d
	}
}

// recordDrain accounts a MsgManager drain of one partition that applied
// pending messages; one that found nothing pending is not recorded.
func (e *Engine[V, M]) recordDrain(iter, p int, start time.Time, row *obs.IterStats) {
	d := time.Since(start)
	e.eo.tr.Emit(engineName, obs.StageDrain, iter, p, start, d)
	e.eo.drainNS.Add(int64(d))
	e.eo.drainHist.Observe(d)
	e.eo.drains.Inc()
	e.stageTotals.Drain += d
	if row != nil {
		row.Stages.Drain += d
	}
}

// newPipeStats builds one partition's pipeline accumulator with the
// heat-attribution fields resolved.
func (e *Engine[V, M]) newPipeStats() *pipeStats {
	return &pipeStats{heat: e.eo.heat, heatFile: e.layout.EdgesFile()}
}

// heatSelective attributes a partition's skipped adjacency blocks — the
// blocks of entry range [start, end) no scheduled run touches — to the
// heatmap, in absolute entry-block units (matching read attribution).
func (e *Engine[V, M]) heatSelective(sched selSchedule, start, end int64) {
	h := e.eo.heat
	if h == nil || sched.streamAll || end <= start {
		return
	}
	be := e.adj.BlockEntries
	file := e.layout.EdgesFile()
	covered := make(map[int64]bool, len(sched.runs))
	for _, r := range sched.runs {
		if r.endOff <= r.startOff {
			continue
		}
		for b := r.startOff / be; b <= (r.endOff-1)/be; b++ {
			covered[b] = true
		}
	}
	for b := start / be; b <= (end-1)/be; b++ {
		if !covered[b] {
			h.AddSkip(file, b)
		}
	}
}

// vstateBlock maps a vertex to its DefaultBlockSize byte block of the
// vertex-state file — the unit drain fan-in is attributed at.
func (e *Engine[V, M]) vstateBlock(dst graph.VertexID) int64 {
	return int64(dst) * int64(e.vsize) / storage.DefaultBlockSize
}

// flushDrainHeat folds one drain's per-block fan-in accumulator into the
// heatmap.
func (e *Engine[V, M]) flushDrainHeat(acc map[int64]int64) {
	file := e.vstateFile()
	for b, n := range acc {
		e.eo.heat.AddDrain(file, b, n)
	}
}

// sampleMemory records one memory-budget accounting sample at an
// iteration boundary: what is resident right now, per accounted class,
// against the configured budget (docs/OBSERVABILITY.md, "Run reports").
func (e *Engine[V, M]) sampleMemory(iter int) {
	if e.eo.reg == nil {
		return
	}
	s := e.residentFloor()
	s.Iteration = iter
	s.BudgetBytes = e.opts.MemoryBudget
	s.VertexStateBytes = int64(cap(e.verts)) * int64(e.vsize) // high-water partition
	s.AdjCacheBytes = int64(len(e.adjData)) * 4
	for p, buf := range e.msgBufs {
		s.MsgBufferBytes += int64(cap(buf))
		// Size is an uncharged catalog lookup; a missing file reads as
		// zero spill (it only happens mid-teardown).
		if sz, err := e.dev.Size(e.msgFile(p)); err == nil {
			s.SpillBytes += sz
		}
	}
	if e.sel != nil {
		s.BitmapBytes = int64(len(e.sel.words)) * 8
	}
	e.eo.reg.RecordMem(s)
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

// foldDeviceStats mirrors the device's cumulative counters into the
// registry as gauges, so /metrics tracks IO alongside the pipeline.
func foldDeviceStats(reg *obs.Registry, st storage.Stats) {
	reg.Gauge("device_read_ops").Set(st.ReadOps)
	reg.Gauge("device_write_ops").Set(st.WriteOps)
	reg.Gauge("device_read_bytes").Set(st.ReadBytes)
	reg.Gauge("device_write_bytes").Set(st.WriteBytes)
	reg.Gauge("device_seeks").Set(st.Seeks)
	reg.Gauge("device_pagecache_hits").Set(st.CacheHits)
	reg.Gauge("device_remove_errors").Set(st.RemoveErrors)
}
