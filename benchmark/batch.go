package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"graphz/internal/bench"
	"graphz/internal/checkpoint"
	"graphz/internal/core"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// run is one workload at one seed: its set-up, its timed ops, its
// verdict.
type run struct {
	sp  *spec
	cfg config
	tr  *tracer // nil untraced
	res *results

	// absolute is the untraced run's times in seconds, printed for the
	// reader and gated by nothing: they move with the box.
	absolute string

	attempted, failed int
	firstFailure      string
	shapeErr          string

	// shared, when set, is the resident adjacency the ops read instead
	// of the device (the served mix's direct engine probes).
	shared *core.SharedAdjacency
}

// fail counts one op that errored, was refused or disagreed with the
// reference, and keeps the first reason.
func (r *run) fail(err error) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = err.Error()
		fmt.Printf("  FAIL %s: %v\n", r.sp.name, err)
	}
}

// deadline bounds a timed phase: rounds when -rounds is given, wall
// clock otherwise, and never fewer than lo rounds.
type deadline struct {
	start  time.Time
	cfg    config
	lo     int
	rounds int
}

func (r *run) newDeadline(lo int) *deadline {
	return &deadline{start: time.Now(), cfg: r.cfg, lo: lo}
}

// next reports whether another round should start.
func (d *deadline) next() bool {
	more := d.rounds < d.lo || time.Since(d.start).Seconds() < d.cfg.seconds
	if d.cfg.rounds > 0 {
		more = d.rounds < d.cfg.rounds
	}
	d.rounds++
	return more
}

// opSample is what one engine run yields.
type opSample struct {
	wall   float64
	io     storage.Stats
	res    core.Result
	values []float64
}

// engineOpts is the workload's engine configuration; every op of the
// workload starts from it.
func (r *run) engineOpts() core.Options {
	o := core.DefaultOptions(r.sp.budget)
	o.SelectiveScheduling = r.sp.selective
	o.SharedAdjacency = r.shared
	if r.sp.algo == bench.BFS {
		o.MaxIterations = 100000
	}
	return o
}

// execOp is the end-to-end batch op: one bench.ExecAlgo call
// (New, Run, Values, Cleanup) with the values in hand.
func execOp(p *prepared, a bench.Algo, opts core.Options, params bench.AlgoParams, tr *tracer, parent, op int) (opSample, error) {
	runtime.GC()
	before := p.dev.Stats()
	id := tr.start("core.exec_algo", parent, op)
	t0 := time.Now()
	res, vals, err := bench.ExecAlgo(a, core.DOSLayout(p.g), opts, params)
	wall := time.Since(t0)
	tr.end(id)
	return opSample{wall: seconds(wall), io: p.dev.Stats().Sub(before), res: res, values: vals}, err
}

// judge runs the oracle and the shape guard over one op.
func (r *run) judge(p *prepared, s opSample, err error, want []float64, checkShape bool) {
	r.attempted++
	if err == nil {
		err = p.compare(r.sp.algo, s.values, want)
	}
	if err != nil {
		r.fail(err)
		return
	}
	if checkShape && r.shapeErr == "" {
		r.shapeErr = r.sp.shape(s.res)
	}
}

// setUp generates the input and takes it from raw edge file to ready
// to run, on a fresh device each time: 3 times untraced (setup_s is their
// median), once traced. ready, when set, finishes each set-up — the served
// mix brings its server up there — and its time counts. The last set-up
// is the one the ops run on.
func (r *run) setUp(ready func(p *prepared, edges []graph.Edge, parent, op int) (time.Duration, error)) (*prepared, []float64, error) {
	op := r.tr.newOp()
	root := r.tr.start("bench.setup", -1, op)
	defer r.tr.end(root)

	id := r.tr.start("gen.generate", root, op)
	t0 := time.Now()
	edges := r.sp.gen(r.cfg.seed)
	r.res.emit("bench.gen_s", seconds(time.Since(t0)), 1)
	r.tr.end(id)

	nConv := 3
	if r.cfg.trace {
		nConv = 1
	}
	var p *prepared
	var setups []float64
	for i := 0; i < nConv; i++ {
		var err error
		var d, up time.Duration
		if p, d, err = convert(r.sp, edges, r.tr, root, op); err != nil {
			return nil, nil, err
		}
		if ready != nil {
			if up, err = ready(p, edges, root, op); err != nil {
				return nil, nil, err
			}
		}
		setups = append(setups, seconds(d+up))
		runtime.GC()
	}
	if err := p.loadOracle(edges, r.tr, root, op); err != nil {
		return nil, nil, err
	}
	return p, setups, nil
}

// runBatch measures a batch workload. Untraced it reports the
// end-to-end metrics; traced it alternates untraced and observed ops and
// adds the layer probes.
func (r *run) runBatch() error {
	p, setups, err := r.setUp(nil)
	if err != nil {
		return err
	}
	params := bench.AlgoParams{Iterations: r.sp.iters, Damping: prDamping}
	if r.sp.algo == bench.BFS {
		params.Source = p.o2n[r.sp.sourceOld]
	}

	id := r.tr.start("plain.reference", -1, 0)
	want := p.reference(r.sp.algo, params.Source, r.sp.iters)
	r.tr.end(id)

	// Every end-to-end op is bracketed by two yardstick samples; an op's
	// ratio is its wall-clock over their mean. The traced run's extra ops
	// go first in a round, so nothing runs between a sample and the op.
	var walls, refs, ratios, reads, writes []float64
	var traced []tracedOp
	var selOff []float64
	var last opSample
	var usage []usageDelta
	ref := yardstick(r.sp, p, params.Source)
	for d := r.newDeadline(3); d.next(); {
		if r.cfg.trace {
			t, err := r.tracedOp(p, params)
			r.judge(p, t.opSample, err, want, true)
			if err == nil {
				traced = append(traced, t)
			}
			if r.sp.selective {
				o := r.engineOpts()
				o.SelectiveScheduling = false
				s, err := execOp(p, r.sp.algo, o, params, nil, -1, 0)
				r.judge(p, s, err, want, false)
				if err == nil {
					selOff = append(selOff, s.wall)
				}
			}
			ref = yardstick(r.sp, p, params.Source)
		}
		u0 := readUsage(r.cfg.trace)
		s, err := execOp(p, r.sp.algo, r.engineOpts(), params, nil, -1, 0)
		if r.cfg.trace {
			usage = append(usage, readUsage(true).sub(u0))
		}
		after := yardstick(r.sp, p, params.Source)
		r.judge(p, s, err, want, true)
		if err == nil {
			walls = append(walls, s.wall)
			refs = append(refs, (ref+after)/2)
			ratios = append(ratios, s.wall/refs[len(refs)-1])
			reads = append(reads, float64(s.io.ReadBytes))
			writes = append(writes, float64(s.io.WriteBytes))
			last = s
		}
		ref = after
	}
	if len(walls) < 2 {
		return fmt.Errorf("%s: %d of %d ops succeeded; nothing to report", r.sp.name, len(walls), r.attempted)
	}
	// The first op warms the allocator and the device's file table.
	walls, refs, ratios, reads, writes = walls[1:], refs[1:], ratios[1:], reads[1:], writes[1:]
	runS := median(walls)
	e := float64(p.edges)

	if !r.cfg.trace {
		perRef := make([]float64, len(ratios))
		for i, x := range ratios {
			perRef[i] = 1 / x
		}
		r.emitEndToEnd(p, setups, ratios, perRef, reads, writes)
		r.absolute = fmt.Sprintf("median op %.6g s (%.6g ops/s), median yardstick %.6g s, n=%d ops", runS, 1/runS, median(refs), len(walls))
		return nil
	}

	r.emitSetupLayers(p)
	seqReadMBs, err := probeLayers(r.sp, p, r.tr, r.res)
	if err != nil {
		return err
	}

	r.emitPlain(p, refs, last.res.Iterations)
	r.res.emit("bench.run_s", runS, len(walls))
	r.res.emit("bench.jobs_per_s", 1/runS, len(walls))

	r.emitCore(last.res, traced, walls, usage, e)
	r.res.emit("core.vs_plain_ratio", median(ratios), len(ratios))
	r.res.emit("core.vs_seqread_ratio", ratio(runS, median(reads)/1e6/seqReadMBs), len(walls))
	if len(selOff) > 1 {
		r.res.emit("core.selective_speedup", ratio(median(selOff[1:]), runS), len(selOff)-1)
	}
	if len(traced) > 1 {
		traced = traced[1:]
	}
	r.res.emit("bench.trace_overhead_ratio", ratio(r.emitObserved(traced, runS), runS), len(traced))
	if r.sp.name == "er-spill-pr" {
		if err := r.probeCheckpoint(p, params, want, runS); err != nil {
			return err
		}
	}
	return nil
}

// emitEndToEnd reports the six end-to-end metrics. vsPlain holds, per
// segment (a batch op is a segment of one), the op's wall-clock over the
// yardstick measured around it; perPlain the ops completed per second
// times that yardstick. reads and writes are the device bytes one op
// moved.
func (r *run) emitEndToEnd(p *prepared, setups, vsPlain, perPlain, reads, writes []float64) {
	e := float64(p.edges)
	r.res.emit("setup_s", median(setups), len(setups))
	r.res.emit("run_vs_plain", median(vsPlain), len(vsPlain))
	r.res.emit("jobs_per_plain_run", median(perPlain), len(perPlain))
	r.res.emit("io_read_b_per_edge", median(reads)/e, len(reads))
	r.res.emit("io_write_b_per_edge", median(writes)/e, len(writes))
	r.res.emit("stored_b_per_edge", float64(p.storedBytes)/e, 1)
}

// tracedOp is one observed engine run: Options.Obs and a collecting
// tracer set (which is what makes the engine fill Result.Stages), the
// modeled SSD clock attached to the device, and the run report built —
// what a served job always pays.
type tracedOp struct {
	opSample
	opWall      float64 // engine run + report build
	modeledIO   float64
	reportBuild float64
	reportBytes int
	spans       int64
}

func (r *run) tracedOp(p *prepared, params bench.AlgoParams) (tracedOp, error) {
	op := r.tr.newOp()
	root := r.tr.start("bench.op", -1, op)
	defer r.tr.end(root)

	reg, etr := obs.NewRegistry(), obs.NewCollectingTracer(nil)
	clock := sim.NewClock()
	p.dev.SetClock(clock)
	defer p.dev.SetClock(nil)
	opts := r.engineOpts()
	opts.Obs, opts.Trace = reg, etr

	t0 := time.Now()
	s, err := execOp(p, r.sp.algo, opts, params, r.tr, root, op)
	out := tracedOp{opSample: s, modeledIO: seconds(clock.TotalIO()), spans: etr.Spans()}
	if err != nil {
		return out, err
	}
	id := r.tr.start("obs.build_report", root, op)
	tb := time.Now()
	rep := obs.BuildReport(obs.ReportInfo{Engine: "benchmark", Algo: string(r.sp.algo), Device: p.dev.Kind().String(),
		BudgetBytes: r.sp.budget}, reg, etr, core.DeviceFileIO(p.dev))
	data, err := rep.Marshal()
	out.reportBuild = seconds(time.Since(tb))
	r.tr.end(id)
	out.opWall = seconds(time.Since(t0))
	out.reportBytes = len(data)
	return out, err
}

func (r *run) emitSetupLayers(p *prepared) {
	e := float64(p.edges)
	r.res.emit("graph.write_edges_s", p.writeEdgesS, 1)
	r.res.emit("dos.convert_s", p.convertS, 1)
	r.res.emit("dos.convert_medges_per_s", e/1e6/p.convertS, 1)
	r.res.emit("dos.convert_read_b_per_edge", float64(p.convertIO.ReadBytes)/e, 1)
	r.res.emit("dos.convert_write_b_per_edge", float64(p.convertIO.WriteBytes)/e, 1)
	r.res.emit("dos.verify_s", p.verifyS, 1)
	r.res.emit("dos.load_s", p.loadS, 1)
	r.res.emit("dos.index_bytes", float64(p.g.IndexBytes()), 1)
	r.res.emit("dos.unique_degrees", float64(p.g.UniqueDegrees()), 1)
}

// emitPlain reports the in-memory yardstick: its run time (the median of
// the timed phase's samples) and the edges it traverses per second over
// the same number of passes the engine made.
func (r *run) emitPlain(p *prepared, refs []float64, passes int) {
	r.res.emit("plain.build_adj_s", p.buildAdjS, 1)
	r.res.emit("plain.run_s", median(refs), len(refs))
	if r.sp.algo == bench.BFS {
		passes = 1 // a queue BFS touches each edge once
	}
	r.res.emit("plain.medges_per_s", ratio(float64(p.edges)*float64(passes)/1e6, median(refs)), len(refs))
}

// emitCore reports the engine's own counters (exact; from the last
// untraced op) and its stage times (medians over the observed ops).
func (r *run) emitCore(res core.Result, traced []tracedOp, walls []float64, usage []usageDelta, edges float64) {
	b2f := map[bool]float64{true: 1}
	r.res.emit("core.iterations", float64(res.Iterations), 1)
	r.res.emit("core.partitions", float64(res.Partitions), 1)
	r.res.emit("core.sem", b2f[res.SemiExternal], 1)
	r.res.emit("core.msgs_sent", float64(res.MessagesSent), 1)
	r.res.emit("core.msg_inline_ratio", ratio(float64(res.MessagesInline), float64(res.MessagesSent)), 1)
	r.res.emit("core.msg_spilled_per_edge", float64(res.MessagesSpilled)/edges, 1)
	r.res.emit("core.updates_run", float64(res.UpdatesRun), 1)
	r.res.emit("core.blocks_scanned", float64(res.BlocksScanned), 1)
	r.res.emit("core.blocks_skipped", float64(res.BlocksSkipped), 1)
	r.res.emit("core.block_skip_ratio", ratio(float64(res.BlocksSkipped), float64(res.BlocksScanned+res.BlocksSkipped)), 1)

	n := len(traced)
	sio := medianOf(traced, func(t tracedOp) float64 { return seconds(t.res.Stages.Sio) })
	dispatch := medianOf(traced, func(t tracedOp) float64 { return seconds(t.res.Stages.Dispatch) })
	worker := medianOf(traced, func(t tracedOp) float64 { return seconds(t.res.Stages.Worker) })
	drain := medianOf(traced, func(t tracedOp) float64 { return seconds(t.res.Stages.Drain) })
	r.res.emit("core.stage_sio_s", sio, n)
	r.res.emit("core.stage_dispatch_s", dispatch, n)
	r.res.emit("core.stage_decode_s", medianOf(traced, func(t tracedOp) float64 { return seconds(t.res.DecodeTime) }), n)
	r.res.emit("core.stage_worker_s", worker, n)
	r.res.emit("core.stage_drain_s", drain, n)
	r.res.emit("core.stage_sum_over_wall", ratio(sio+dispatch+worker+drain, medianOf(traced, func(t tracedOp) float64 { return t.wall })), n)

	r.res.emit("core.medges_per_s", ratio(edges*float64(res.Iterations)/1e6, median(walls)), len(walls))
	r.res.emit("core.run_s_min", minOf(walls), len(walls))
	emitUsage(r.res, usage)
}

func emitUsage(res *results, usage []usageDelta) {
	n := len(usage)
	res.emit("core.cpu_s_per_run", medianOf(usage, func(u usageDelta) float64 { return u.cpuS }), n)
	res.emit("core.alloc_mb_per_run", medianOf(usage, func(u usageDelta) float64 { return u.allocMB }), n)
	res.emit("core.allocs_per_run", medianOf(usage, func(u usageDelta) float64 { return u.allocs }), n)
	res.emit("core.gc_pause_ms_per_run", medianOf(usage, func(u usageDelta) float64 { return u.gcPauseMS }), n)
}

// emitObserved reports what the observed ops show and cost: the device
// traffic of one run (with its modeled SSD time), and the engine run
// with Options.Obs and a collecting tracer against the same run without.
// It returns the median of the whole traced op, report build included.
func (r *run) emitObserved(traced []tracedOp, untracedS float64) float64 {
	col := func(f func(t tracedOp) float64) float64 { return medianOf(traced, f) }
	n := len(traced)
	r.res.emit("storage.run_read_ops", col(func(t tracedOp) float64 { return float64(t.io.ReadOps) }), n)
	r.res.emit("storage.run_write_ops", col(func(t tracedOp) float64 { return float64(t.io.WriteOps) }), n)
	r.res.emit("storage.run_seeks", col(func(t tracedOp) float64 { return float64(t.io.Seeks) }), n)
	r.res.emit("storage.modeled_io_s", col(func(t tracedOp) float64 { return t.modeledIO }), n)
	r.res.emit("obs.overhead_ratio", ratio(col(func(t tracedOp) float64 { return t.wall }), untracedS), n)
	r.res.emit("obs.report_build_s", col(func(t tracedOp) float64 { return t.reportBuild }), n)
	r.res.emit("obs.report_bytes", col(func(t tracedOp) float64 { return float64(t.reportBytes) }), n)
	r.res.emit("obs.spans_per_run", col(func(t tracedOp) float64 { return float64(t.spans) }), n)
	return col(func(t tracedOp) float64 { return t.opWall })
}

// probeCheckpoint runs the two extra ops behind checkpoint.*: one op
// checkpointing after every iteration, and one cancelled once the third
// checkpoint exists and then resumed to completion. Both must still
// agree with the reference.
func (r *run) probeCheckpoint(p *prepared, params bench.AlgoParams, want []float64, runS float64) error {
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	dir, err := os.MkdirTemp(r.cfg.outDir, "ckpt-")
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	defer os.RemoveAll(dir)
	op := r.tr.newOp()
	root := r.tr.start("bench.checkpoint_probe", -1, op)
	defer r.tr.end(root)

	opts := r.engineOpts()
	opts.Checkpoint = core.CheckpointOptions{Dir: dir + "/every", Every: 1}
	s, err := execOp(p, r.sp.algo, opts, params, r.tr, root, op)
	r.judge(p, s, err, want, false)
	if err != nil {
		return nil
	}
	n := float64(s.res.Checkpoints)
	r.res.emit("checkpoint.overhead_ratio", ratio(s.wall, runS), 1)
	r.res.emit("checkpoint.write_s_per_ckpt", ratio(seconds(s.res.CheckpointTime), n), int(n))
	r.res.emit("checkpoint.bytes_per_ckpt", ratio(float64(s.res.CheckpointBytes), n), int(n))

	// The crash: cancel the run as soon as checkpoint 3 is on disk. A
	// run that finishes first (tiny graphs) leaves a final checkpoint
	// and the resume only restores it.
	opts.Checkpoint.Dir = dir + "/crash"
	store, err := checkpoint.NewStore(opts.Checkpoint.Dir)
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for ctx.Err() == nil {
			if its, _ := store.Iterations(); len(its) > 0 && its[len(its)-1] >= 3 {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	opts.Context = ctx
	_, err = execOp(p, r.sp.algo, opts, params, r.tr, root, op)
	cancel()
	<-watchDone
	if err != nil && !errors.Is(err, core.ErrCancelled) {
		r.attempted++
		r.fail(fmt.Errorf("checkpointed run: %w", err))
		return nil
	}
	opts.Context = nil
	opts.Checkpoint.Resume = true
	s, err = execOp(p, r.sp.algo, opts, params, r.tr, root, op)
	r.judge(p, s, err, want, false)
	if err == nil {
		r.res.emit("checkpoint.resume_s", s.wall, 1)
	}
	return nil
}
