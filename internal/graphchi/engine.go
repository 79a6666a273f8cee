package graphchi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// engineName labels this engine's spans and metrics.
const engineName = "graphchi"

// EdgeRef exposes one edge of the in-memory subgraph to an update
// function: the neighbor on the other end and a pointer to the mutable
// edge value. Writing through Val communicates with the neighbor — the
// static-message model.
type EdgeRef[E any] struct {
	Neighbor graph.VertexID
	Val      *E
}

// Program is a GraphChi-style vertex program: state lives in vertex
// values and edge values; update() reads in-edges and writes out-edges.
type Program[V, E any] interface {
	// Init produces a vertex's initial state.
	Init(id graph.VertexID, inDeg, outDeg uint32) V
	// InitEdge produces an edge's initial value (written during the
	// engine's initialization pass over all shards).
	InitEdge(src, dst graph.VertexID) E
	// Update is called on every vertex every iteration with its
	// in-edges and out-edges.
	Update(ctx *Context, id graph.VertexID, v *V, in, out []EdgeRef[E])
}

// Context carries per-update runtime state.
type Context struct {
	iteration int
	active    *bool
}

// NewContext builds a context for driving a Program outside the engine
// (the GraphZ emulation of Section IV-E and unit tests use it). The
// engine itself constructs contexts internally.
func NewContext(iteration int, active *bool) *Context {
	return &Context{iteration: iteration, active: active}
}

// Iteration returns the current iteration (0-based).
func (c *Context) Iteration() int { return c.iteration }

// MarkActive keeps the computation running another iteration.
func (c *Context) MarkActive() { *c.active = true }

// Options configures a run.
type Options struct {
	MemoryBudget  int64
	MaxIterations int // 0 = run until no vertex marks active
	Clock         *sim.Clock
	Name          string // runtime file prefix; defaults to "chi"
	// Obs receives per-stage timings and one IterStats row per
	// iteration; nil disables collection — the no-op fast path.
	Obs *obs.Registry
	// Trace receives one JSONL span per (iteration, interval, stage);
	// nil disables tracing.
	Trace *obs.Tracer
}

// ErrMemoryBudget reports that the per-vertex degree index cannot be
// resident — GraphChi's failure mode on the paper's xlarge graph.
var ErrMemoryBudget = errors.New("graphchi: vertex index does not fit in memory budget")

// Result summarizes a run.
type Result struct {
	Iterations     int
	Shards         int
	UpdatesRun     int64
	EdgesTraversed int64
	// Stages is wall-clock time per pipeline stage, summed over the
	// run; populated only when Options.Obs or Options.Trace is set.
	Stages obs.StageTimes
}

// Engine executes a Program over Shards with the PSW algorithm.
type Engine[V, E any] struct {
	sh     *Shards
	prog   Program[V, E]
	vcodec graph.Codec[V]
	ecodec graph.Codec[E]
	opts   Options
	dev    *storage.Device

	inDeg, outDeg []uint32
	verts         []V
	updates       int64
	traversed     int64
	finished      bool

	rec obs.StageRecorder
}

// New validates the budget (the degree index plus one interval's working
// set must fit) and prepares a run.
func New[V, E any](sh *Shards, prog Program[V, E], vcodec graph.Codec[V], ecodec graph.Codec[E], opts Options) (*Engine[V, E], error) {
	if opts.Name == "" {
		opts.Name = "chi"
	}
	if ecodec.Size() != sh.EdgeValSize {
		return nil, fmt.Errorf("graphchi: edge codec size %d does not match shard edge value size %d",
			ecodec.Size(), sh.EdgeValSize)
	}
	if opts.MemoryBudget <= 0 {
		return nil, fmt.Errorf("graphchi: memory budget must be positive")
	}
	if sh.IndexBytes() >= opts.MemoryBudget {
		return nil, fmt.Errorf("%w: index %d B, budget %d B", ErrMemoryBudget,
			sh.IndexBytes(), opts.MemoryBudget)
	}
	return &Engine[V, E]{
		sh: sh, prog: prog, vcodec: vcodec, ecodec: ecodec, opts: opts,
		dev: sh.Device(),
		rec: obs.NewStageRecorder(engineName, opts.Obs, opts.Trace),
	}, nil
}

func (e *Engine[V, E]) vstateFile() string { return e.opts.Name + ".vstate" }

func (e *Engine[V, E]) charge(n int64, cost time.Duration) {
	if e.opts.Clock != nil {
		e.opts.Clock.ComputeUnits(n, cost)
	}
}

func (e *Engine[V, E]) chargeBytes(n int64) {
	if e.opts.Clock != nil {
		e.opts.Clock.ComputeBytes(n)
	}
}

// Run executes the program.
func (e *Engine[V, E]) Run() (Result, error) {
	if e.finished {
		return Result{}, fmt.Errorf("graphchi: engine already ran")
	}
	if err := e.loadDegrees(); err != nil {
		return Result{}, err
	}
	if err := e.initPass(); err != nil {
		return Result{}, err
	}
	iters := 0
	for {
		if e.opts.Clock != nil {
			e.opts.Clock.BeginPhase(fmt.Sprintf("iter%d", iters))
		}
		active := false
		var devBefore storage.Stats
		if e.rec.On {
			devBefore = e.dev.Stats()
		}
		if err := e.runIteration(iters, &active); err != nil {
			return Result{}, err
		}
		if e.rec.On {
			io := e.dev.Stats().Sub(devBefore)
			e.rec.Reg.RecordIter(obs.IterStats{Iteration: iters,
				DeviceReadBytes: io.ReadBytes, DeviceWriteBytes: io.WriteBytes, DeviceSeeks: io.Seeks})
		}
		iters++
		if e.opts.MaxIterations > 0 && iters >= e.opts.MaxIterations {
			break
		}
		if !active {
			break
		}
	}
	e.finished = true
	return Result{
		Iterations:     iters,
		Shards:         e.sh.NumShards(),
		UpdatesRun:     e.updates,
		EdgesTraversed: e.traversed,
		Stages:         e.rec.Run,
	}, nil
}

// loadDegrees makes the per-vertex degree index resident (this is the
// big index the paper's Table XI measures).
func (e *Engine[V, E]) loadDegrees() error {
	data, err := storage.ReadAllFile(e.dev, e.sh.DegreeFile())
	if err != nil {
		return fmt.Errorf("graphchi: loading degree index: %w", err)
	}
	n := e.sh.NumVertices
	if len(data) != n*DegreeEntryBytes {
		return fmt.Errorf("graphchi: degree file has %d bytes, want %d", len(data), n*DegreeEntryBytes)
	}
	e.inDeg = make([]uint32, n)
	e.outDeg = make([]uint32, n)
	for v := 0; v < n; v++ {
		e.inDeg[v] = binary.LittleEndian.Uint32(data[v*DegreeEntryBytes:])
		e.outDeg[v] = binary.LittleEndian.Uint32(data[v*DegreeEntryBytes+4:])
	}
	return nil
}

// initPass writes initial vertex states and rewrites every shard with the
// program's initial edge values (GraphChi's data initialization IO).
func (e *Engine[V, E]) initPass() error {
	if e.opts.Clock != nil {
		e.opts.Clock.BeginPhase("init")
	}
	vf, err := e.dev.Create(e.vstateFile())
	if err != nil {
		return err
	}
	w := storage.NewWriter(vf)
	vbuf := make([]byte, e.vcodec.Size())
	for v := 0; v < e.sh.NumVertices; v++ {
		e.vcodec.Encode(vbuf, e.prog.Init(graph.VertexID(v), e.inDeg[v], e.outDeg[v]))
		if _, err := w.Write(vbuf); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	e.chargeBytes(int64(e.sh.NumVertices) * int64(e.vcodec.Size()))

	rec := e.sh.recBytes()
	for p := 0; p < e.sh.NumShards(); p++ {
		f, err := e.dev.Open(e.sh.ShardFile(p))
		if err != nil {
			return err
		}
		r := storage.NewReader(f)
		out := storage.NewWriterAt(f, 0)
		buf := make([]byte, rec)
		for {
			err := r.ReadFull(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			src := graph.VertexID(binary.LittleEndian.Uint32(buf))
			dst := graph.VertexID(binary.LittleEndian.Uint32(buf[4:]))
			e.ecodec.Encode(buf[8:], e.prog.InitEdge(src, dst))
			if _, err := out.Write(buf); err != nil {
				return err
			}
		}
		if err := out.Flush(); err != nil {
			return err
		}
		e.chargeBytes(e.sh.ShardEntries[p] * int64(rec))
	}
	return nil
}

// shardCursor is one shard's sliding window position: the next entry to
// consume, a persistent buffered reader (so consecutive windows continue
// within already-fetched blocks instead of re-reading them), and at most
// one record read past the current window boundary.
type shardCursor struct {
	entry int64
	r     *storage.Reader
	pend  []byte
}

// invalidate drops the reader (e.g. after the cursor was advanced without
// consuming from it); the next window re-opens at the entry offset.
func (c *shardCursor) invalidate() {
	c.r = nil
	c.pend = nil
}

// runIteration performs one PSW pass over all intervals.
func (e *Engine[V, E]) runIteration(iter int, active *bool) error {
	nShards := e.sh.NumShards()
	// Per-shard sliding-window cursors, reset each iteration.
	cursors := make([]shardCursor, nShards)
	for p := 0; p < nShards; p++ {
		if err := e.runInterval(p, iter, cursors, active); err != nil {
			return err
		}
	}
	return nil
}

// memShard is shard p fully decoded.
type memShard[E any] struct {
	src, dst []graph.VertexID
	vals     []E
}

// runInterval executes updates for interval p.
func (e *Engine[V, E]) runInterval(p, iter int, cursors []shardCursor, active *bool) error {
	lo, hi := e.sh.IntervalStart[p], e.sh.IntervalStart[p+1]
	count := int(hi - lo)
	if count == 0 {
		return nil
	}
	var t time.Time
	if e.rec.On {
		t = time.Now()
	}
	// Load vertex states.
	if err := e.loadVertices(lo, hi); err != nil {
		return err
	}
	// Load the memory shard (in-edges of the interval).
	ms, err := e.loadShard(p)
	if err != nil {
		return err
	}
	// Gather the sliding windows (out-edges of the interval) from
	// every shard. The window of shard p aliases the loaded memory
	// shard so in/out views of intra-interval edges share one value.
	type window struct {
		shard      int
		startEntry int64
		src, dst   []graph.VertexID
		vals       []E
		aliased    bool
	}
	windows := make([]window, 0, e.sh.NumShards())
	for j := 0; j < e.sh.NumShards(); j++ {
		if j == p {
			s, n := windowBounds(ms.src, lo, hi)
			windows = append(windows, window{
				shard: j, startEntry: int64(s),
				src: ms.src[s : s+n], dst: ms.dst[s : s+n], vals: ms.vals[s : s+n],
				aliased: true,
			})
			// The memory shard consumed these entries; move the
			// cursor past them without touching the device.
			cursors[j].entry = int64(s + n)
			cursors[j].invalidate()
			continue
		}
		w, err := e.loadWindow(j, hi, &cursors[j])
		if err != nil {
			return err
		}
		windows = append(windows, window{
			shard: j, startEntry: w.startEntry,
			src: w.src, dst: w.dst, vals: w.vals,
		})
	}
	if e.rec.On {
		t = e.rec.Since(obs.StageSio, iter, p, t)
	}

	// Build the subgraph: per-vertex in-edge and out-edge reference
	// lists.
	in := make([][]EdgeRef[E], count)
	for i := range ms.dst {
		d := ms.dst[i]
		in[d-lo] = append(in[d-lo], EdgeRef[E]{Neighbor: ms.src[i], Val: &ms.vals[i]})
	}
	out := make([][]EdgeRef[E], count)
	for wi := range windows {
		w := &windows[wi]
		for i := range w.src {
			s := w.src[i]
			out[s-lo] = append(out[s-lo], EdgeRef[E]{Neighbor: w.dst[i], Val: &w.vals[i]})
		}
	}
	if e.rec.On {
		t = e.rec.Since(obs.StageDispatch, iter, p, t)
	}

	// Update vertices in ID order.
	ctx := &Context{iteration: iter, active: active}
	for i := 0; i < count; i++ {
		id := lo + graph.VertexID(i)
		e.prog.Update(ctx, id, &e.verts[i], in[i], out[i])
		e.updates++
		ne := int64(len(in[i]) + len(out[i]))
		e.traversed += ne
		e.charge(1, sim.CostVertexUpdate)
		e.charge(ne, sim.CostEdgeScan)
	}
	if e.rec.On {
		t = e.rec.Since(obs.StageWorker, iter, p, t)
	}

	// Write back: vertex states, the memory shard, and the windows.
	if err := e.storeVertices(lo, hi); err != nil {
		return err
	}
	if err := e.storeShardRange(p, 0, ms.src, ms.dst, ms.vals); err != nil {
		return err
	}
	for _, w := range windows {
		if w.aliased || len(w.src) == 0 {
			continue // already persisted with the memory shard
		}
		if err := e.storeShardRange(w.shard, w.startEntry, w.src, w.dst, w.vals); err != nil {
			return err
		}
	}
	if e.rec.On {
		e.rec.Since(obs.StageDrain, iter, p, t)
	}
	return nil
}

// windowBounds finds the [start, start+n) run of entries with src in
// [lo, hi) in a src-sorted entry list.
func windowBounds(src []graph.VertexID, lo, hi graph.VertexID) (int, int) {
	start := 0
	for start < len(src) && src[start] < lo {
		start++
	}
	end := start
	for end < len(src) && src[end] < hi {
		end++
	}
	return start, end - start
}

// loadShard reads shard p entirely.
func (e *Engine[V, E]) loadShard(p int) (*memShard[E], error) {
	rec := e.sh.recBytes()
	n := e.sh.ShardEntries[p]
	f, err := e.dev.Open(e.sh.ShardFile(p))
	if err != nil {
		return nil, err
	}
	data := make([]byte, n*int64(rec))
	r := storage.NewReader(f)
	if len(data) > 0 {
		if err := r.ReadFull(data); err != nil {
			return nil, fmt.Errorf("graphchi: reading shard %d: %w", p, err)
		}
	}
	ms := &memShard[E]{
		src:  make([]graph.VertexID, n),
		dst:  make([]graph.VertexID, n),
		vals: make([]E, n),
	}
	for i := int64(0); i < n; i++ {
		o := i * int64(rec)
		ms.src[i] = graph.VertexID(binary.LittleEndian.Uint32(data[o:]))
		ms.dst[i] = graph.VertexID(binary.LittleEndian.Uint32(data[o+4:]))
		ms.vals[i] = e.ecodec.Decode(data[o+8:])
	}
	e.chargeBytes(int64(len(data)))
	return ms, nil
}

// winData is a decoded sliding window.
type winData[E any] struct {
	startEntry int64
	src, dst   []graph.VertexID
	vals       []E
}

// loadWindow advances shard j's sliding cursor through entries with
// src < hi, returning them as the interval's window. The cursor's
// buffered reader persists across intervals, so the scan is one
// sequential pass over each shard per iteration; the one record read
// past the boundary is kept pending for the next window.
func (e *Engine[V, E]) loadWindow(j int, hi graph.VertexID, cur *shardCursor) (*winData[E], error) {
	rec := int64(e.sh.recBytes())
	total := e.sh.ShardEntries[j]
	if cur.r == nil {
		f, err := e.dev.Open(e.sh.ShardFile(j))
		if err != nil {
			return nil, err
		}
		cur.r = storage.NewRangeReader(f, cur.entry*rec, total*rec)
	}
	startEntry := cur.entry
	w := &winData[E]{startEntry: startEntry}
	consume := func(buf []byte) bool {
		src := graph.VertexID(binary.LittleEndian.Uint32(buf))
		if src >= hi {
			return false
		}
		w.src = append(w.src, src)
		w.dst = append(w.dst, graph.VertexID(binary.LittleEndian.Uint32(buf[4:])))
		w.vals = append(w.vals, e.ecodec.Decode(buf[8:]))
		cur.entry++
		return true
	}
	if cur.pend != nil {
		if !consume(cur.pend) {
			return w, nil
		}
		cur.pend = nil
	}
	buf := make([]byte, rec)
	for cur.entry < total {
		if err := cur.r.ReadFull(buf); err != nil {
			return nil, fmt.Errorf("graphchi: window scan shard %d: %w", j, err)
		}
		if !consume(buf) {
			cur.pend = append([]byte(nil), buf...)
			break
		}
	}
	e.chargeBytes(int64(len(w.src)) * rec)
	return w, nil
}

// storeShardRange re-encodes entries and writes them back at the given
// entry offset of shard p.
func (e *Engine[V, E]) storeShardRange(p int, startEntry int64, src, dst []graph.VertexID, vals []E) error {
	if len(src) == 0 {
		return nil
	}
	rec := e.sh.recBytes()
	data := make([]byte, len(src)*rec)
	for i := range src {
		o := i * rec
		binary.LittleEndian.PutUint32(data[o:], uint32(src[i]))
		binary.LittleEndian.PutUint32(data[o+4:], uint32(dst[i]))
		e.ecodec.Encode(data[o+8:], vals[i])
	}
	f, err := e.dev.Open(e.sh.ShardFile(p))
	if err != nil {
		return err
	}
	w := storage.NewWriterAt(f, startEntry*int64(rec))
	if _, err := w.Write(data); err != nil {
		return err
	}
	e.chargeBytes(int64(len(data)))
	return w.Flush()
}

// loadVertices reads the interval's vertex states into e.verts.
func (e *Engine[V, E]) loadVertices(lo, hi graph.VertexID) error {
	count := int(hi - lo)
	if cap(e.verts) < count {
		e.verts = make([]V, count)
	}
	e.verts = e.verts[:count]
	f, err := e.dev.Open(e.vstateFile())
	if err != nil {
		return err
	}
	vs := int64(e.vcodec.Size())
	buf := make([]byte, int64(count)*vs)
	r := storage.NewRangeReader(f, int64(lo)*vs, int64(hi)*vs)
	if err := r.ReadFull(buf); err != nil {
		return fmt.Errorf("graphchi: loading vertices [%d,%d): %w", lo, hi, err)
	}
	for i := 0; i < count; i++ {
		e.verts[i] = e.vcodec.Decode(buf[int64(i)*vs:])
	}
	e.chargeBytes(int64(len(buf)))
	return nil
}

// storeVertices writes the interval's vertex states back.
func (e *Engine[V, E]) storeVertices(lo, hi graph.VertexID) error {
	count := int(hi - lo)
	vs := e.vcodec.Size()
	buf := make([]byte, count*vs)
	for i := 0; i < count; i++ {
		e.vcodec.Encode(buf[i*vs:], e.verts[i])
	}
	f, err := e.dev.Open(e.vstateFile())
	if err != nil {
		return err
	}
	w := storage.NewWriterAt(f, int64(lo)*int64(vs))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	e.chargeBytes(int64(len(buf)))
	return w.Flush()
}

// Values reads the final vertex states after Run.
func (e *Engine[V, E]) Values() ([]V, error) {
	if !e.finished {
		return nil, fmt.Errorf("graphchi: Values before Run")
	}
	data, err := storage.ReadAllFile(e.dev, e.vstateFile())
	if err != nil {
		return nil, err
	}
	vs := e.vcodec.Size()
	n := e.sh.NumVertices
	if len(data) != n*vs {
		return nil, fmt.Errorf("graphchi: vertex state file has %d bytes, want %d", len(data), n*vs)
	}
	out := make([]V, n)
	for i := range out {
		out[i] = e.vcodec.Decode(data[i*vs:])
	}
	return out, nil
}

// Cleanup removes the engine's runtime files.
func (e *Engine[V, E]) Cleanup() {
	e.dev.Remove(e.vstateFile())
}
