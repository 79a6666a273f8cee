// Package xstream implements an X-Stream-class baseline: the
// edge-centric, bulk-synchronous, out-of-core model of Roy et al. that
// the paper compares against. Vertices are split into streaming
// partitions; each iteration runs a scatter phase (stream every
// partition's edges, emitting updates binned by destination partition)
// followed by a gather phase (stream every partition's updates, folding
// them into vertex state). There is no vertex index at all — edges are
// only ever streamed — which is the model's selling point and the reason
// it survives the paper's xlarge graph while paying for full edge
// streams and a complete update shuffle every iteration.
package xstream

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"time"

	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// engineName labels this engine's spans and metrics. The edge-centric
// model has no Dispatcher, so its stages map to sio (vertex-state loads),
// worker (the scatter edge stream), and drain (the gather pass).
const engineName = "xstream"

// Program is an X-Stream-style edge-centric program. V is the vertex
// state, U the update record type. The engine is bulk-synchronous:
// updates emitted by Scatter in iteration k are folded by Gather in
// iteration k, and PostGather advances every vertex's state for
// iteration k+1.
type Program[V, U any] interface {
	// Init produces a vertex's initial state given its out-degree.
	Init(id graph.VertexID, outDeg uint32) V
	// Scatter inspects the source state of one edge and produces an
	// update for the destination, or reports false to emit nothing.
	Scatter(iter int, src graph.VertexID, v *V, dst graph.VertexID) (U, bool)
	// Gather folds one update into the destination's state.
	Gather(iter int, dst graph.VertexID, v *V, u U)
	// PostGather runs once per vertex after the gather phase; it
	// returns true if the vertex remains active.
	PostGather(iter int, id graph.VertexID, v *V) bool
}

// Options configures a run.
type Options struct {
	MemoryBudget  int64
	MaxIterations int // 0 = run until no vertex is active and no updates flow
	Clock         *sim.Clock
	Name          string // runtime file prefix; defaults to "xs"
	// Obs receives per-stage timings and one IterStats row per
	// iteration; nil disables collection — the no-op fast path.
	Obs *obs.Registry
	// Trace receives one JSONL span per (iteration, partition, stage);
	// nil disables tracing.
	Trace *obs.Tracer
}

// Result summarizes a run.
type Result struct {
	Iterations     int
	Partitions     int
	UpdatesEmitted int64
	EdgesStreamed  int64
	// Stages is wall-clock time per pipeline stage, summed over the
	// run; populated only when Options.Obs or Options.Trace is set.
	Stages obs.StageTimes
}

// Partitioned is an edge set split into per-source-partition streams on a
// device, plus the out-degree file scatter needs. This is X-Stream's
// entire preprocessing: a single binning pass, no sorting, no index.
type Partitioned struct {
	dev    *storage.Device
	prefix string

	NumVertices int
	NumEdges    int64
	// PartStart[k] is the first vertex of partition k;
	// PartStart[K] == NumVertices.
	PartStart []graph.VertexID
}

// NumPartitions returns the streaming partition count.
func (p *Partitioned) NumPartitions() int { return len(p.PartStart) - 1 }

// Device returns the backing device.
func (p *Partitioned) Device() *storage.Device { return p.dev }

// EdgeFile names partition k's edge stream.
func (p *Partitioned) EdgeFile(k int) string { return fmt.Sprintf("%s.xs.edges%d", p.prefix, k) }

// DegreeFile names the out-degree stream (u32 per vertex, streamed
// alongside vertex state; never random-accessed).
func (p *Partitioned) DegreeFile() string { return p.prefix + ".xs.deg" }

func (p *Partitioned) metaFile() string { return p.prefix + ".xs.meta" }

// partitionOf returns the partition containing vertex v.
func (p *Partitioned) partitionOf(v graph.VertexID) int {
	k := p.NumPartitions()
	i := int(int64(v) * int64(k) / int64(p.NumVertices))
	for i+1 < k && v >= p.PartStart[i+1] {
		i++
	}
	for i > 0 && v < p.PartStart[i] {
		i--
	}
	return i
}

// PartitionConfig parameterizes preprocessing.
type PartitionConfig struct {
	Dev   *storage.Device
	Clock *sim.Clock
	// MemoryBudget sizes the partition count: one partition's vertex
	// states (assumed 8 B each) must fit in roughly half the budget.
	MemoryBudget int64
	// NumPartitions overrides automatic selection when > 0.
	NumPartitions int
}

// Partition splits a raw edge file into streaming partitions with one
// sequential pass (plus a degree-counting pass).
func Partition(cfg PartitionConfig, edgeFile, prefix string) (*Partitioned, error) {
	dev := cfg.Dev
	p := &Partitioned{dev: dev, prefix: prefix}

	f, err := dev.Open(edgeFile)
	if err != nil {
		return nil, err
	}
	// Pass 1: max ID, edge count, out-degrees.
	maxID, numEdges, err := graph.Extent(f)
	if err != nil {
		return nil, fmt.Errorf("xstream: %w", err)
	}
	p.NumEdges = numEdges
	if p.NumEdges > 0 || maxID > 0 {
		p.NumVertices = int(maxID) + 1
	}
	outDeg := make([]uint32, p.NumVertices)
	s := graph.NewEdgeScanner(f)
	for s.Scan() {
		outDeg[s.Edge().Src]++
	}
	if s.Err() != nil {
		return nil, s.Err()
	}
	df, err := dev.Create(p.DegreeFile())
	if err != nil {
		return nil, err
	}
	dw := storage.NewWriter(df)
	var rec [4]byte
	for _, d := range outDeg {
		binary.LittleEndian.PutUint32(rec[:], d)
		if _, err := dw.Write(rec[:]); err != nil {
			return nil, err
		}
	}
	if err := dw.Flush(); err != nil {
		return nil, err
	}

	// Choose the partition count.
	k := cfg.NumPartitions
	if k <= 0 {
		per := cfg.MemoryBudget / 2
		if per <= 0 {
			per = 1 << 20
		}
		k = int((int64(p.NumVertices)*8 + per - 1) / per)
		if k < 1 {
			k = 1
		}
	}
	p.PartStart = make([]graph.VertexID, k+1)
	for i := 0; i <= k; i++ {
		p.PartStart[i] = graph.VertexID(int64(i) * int64(p.NumVertices) / int64(k))
	}

	// Pass 2: bin edges by source partition.
	writers := make([]*storage.Writer, k)
	for i := 0; i < k; i++ {
		pf, err := dev.Create(p.EdgeFile(i))
		if err != nil {
			return nil, err
		}
		writers[i] = storage.NewWriter(pf)
	}
	var buf [graph.EdgeBytes]byte
	s = graph.NewEdgeScanner(f)
	for s.Scan() {
		graph.PutEdge(buf[:], s.Edge())
		if _, err := writers[p.partitionOf(s.Edge().Src)].Write(buf[:]); err != nil {
			return nil, err
		}
	}
	if s.Err() != nil {
		return nil, s.Err()
	}
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	cfg.Clock.ComputeBytes(3 * p.NumEdges * graph.EdgeBytes)
	if err := p.writeMeta(); err != nil {
		return nil, err
	}
	return p, nil
}

const metaMagic = 0x585334_47534f44

func (p *Partitioned) writeMeta() error {
	k := p.NumPartitions()
	buf := make([]byte, 32+(k+1)*4)
	binary.LittleEndian.PutUint64(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(p.NumVertices))
	binary.LittleEndian.PutUint64(buf[16:], uint64(p.NumEdges))
	binary.LittleEndian.PutUint64(buf[24:], uint64(k))
	for i, st := range p.PartStart {
		binary.LittleEndian.PutUint32(buf[32+4*i:], uint32(st))
	}
	return storage.WriteAll(p.dev, p.metaFile(), buf)
}

// LoadPartitioned opens previously partitioned edges by prefix.
func LoadPartitioned(dev *storage.Device, prefix string) (*Partitioned, error) {
	buf, err := storage.ReadAllFile(dev, prefix+".xs.meta")
	if err != nil {
		return nil, fmt.Errorf("xstream: loading meta: %w", err)
	}
	if len(buf) < 32 || binary.LittleEndian.Uint64(buf) != metaMagic {
		return nil, fmt.Errorf("xstream: %q is not a partition meta file", prefix)
	}
	p := &Partitioned{
		dev:         dev,
		prefix:      prefix,
		NumVertices: int(binary.LittleEndian.Uint64(buf[8:])),
		NumEdges:    int64(binary.LittleEndian.Uint64(buf[16:])),
	}
	k := int(binary.LittleEndian.Uint64(buf[24:]))
	if len(buf) != 32+(k+1)*4 {
		return nil, fmt.Errorf("xstream: meta file truncated")
	}
	p.PartStart = make([]graph.VertexID, k+1)
	for i := range p.PartStart {
		p.PartStart[i] = graph.VertexID(binary.LittleEndian.Uint32(buf[32+4*i:]))
	}
	return p, nil
}

// Engine executes a Program over a Partitioned edge set.
type Engine[V, U any] struct {
	pt     *Partitioned
	prog   Program[V, U]
	vcodec graph.Codec[V]
	ucodec graph.Codec[U]
	opts   Options
	dev    *storage.Device
	states graph.StateFile[V]

	verts    []V    // states of the partition being streamed
	stage    []byte // their encoded bytes on load and store
	updates  int64
	streamed int64
	finished bool

	rec obs.StageRecorder
}

// New prepares a run.
func New[V, U any](pt *Partitioned, prog Program[V, U], vcodec graph.Codec[V], ucodec graph.Codec[U], opts Options) (*Engine[V, U], error) {
	if opts.Name == "" {
		opts.Name = "xs"
	}
	if opts.MemoryBudget <= 0 {
		return nil, fmt.Errorf("xstream: memory budget must be positive")
	}
	return &Engine[V, U]{
		pt: pt, prog: prog, vcodec: vcodec, ucodec: ucodec, opts: opts,
		dev:    pt.Device(),
		states: graph.NewStateFile(pt.Device(), opts.Name+".vstate", vcodec, opts.Clock),
		rec:    obs.NewStageRecorder(engineName, opts.Obs, opts.Trace),
	}, nil
}

func (e *Engine[V, U]) updateFile(k int) string {
	return fmt.Sprintf("%s.upd.%d", e.opts.Name, k)
}

// Run executes the program.
func (e *Engine[V, U]) Run() (Result, error) {
	if e.finished {
		return Result{}, fmt.Errorf("xstream: engine already ran")
	}
	if err := e.initPass(); err != nil {
		return Result{}, err
	}
	k := e.pt.NumPartitions()
	for i := 0; i < k; i++ {
		if _, err := e.dev.Create(e.updateFile(i)); err != nil {
			return Result{}, err
		}
	}
	iters := 0
	for {
		e.opts.Clock.BeginIteration(iters)
		var devBefore storage.Stats
		if e.rec.On {
			devBefore = e.dev.Stats()
		}
		emitted, err := e.scatterPhase(iters)
		if err != nil {
			return Result{}, err
		}
		active, err := e.gatherPhase(iters)
		if err != nil {
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
		if !active && emitted == 0 {
			break
		}
	}
	e.finished = true
	for i := 0; i < k; i++ {
		e.dev.Remove(e.updateFile(i))
	}
	return Result{
		Iterations:     iters,
		Partitions:     k,
		UpdatesEmitted: e.updates,
		EdgesStreamed:  e.streamed,
		Stages:         e.rec.Run,
	}, nil
}

// initPass streams the degree file and writes initial vertex states.
func (e *Engine[V, U]) initPass() error {
	e.opts.Clock.BeginPhase("init")
	df, err := e.dev.Open(e.pt.DegreeFile())
	if err != nil {
		return err
	}
	vf, err := e.dev.Create(e.states.Name())
	if err != nil {
		return err
	}
	r := storage.NewReader(df)
	w := storage.NewWriter(vf)
	vbuf := make([]byte, e.vcodec.Size())
	var dbuf [4]byte
	for v := 0; v < e.pt.NumVertices; v++ {
		if err := r.ReadFull(dbuf[:]); err != nil {
			return fmt.Errorf("xstream: reading degrees: %w", err)
		}
		deg := binary.LittleEndian.Uint32(dbuf[:])
		e.vcodec.Encode(vbuf, e.prog.Init(graph.VertexID(v), deg))
		if _, err := w.Write(vbuf); err != nil {
			return err
		}
	}
	e.opts.Clock.ComputeBytes(int64(e.pt.NumVertices) * int64(e.vcodec.Size()+4))
	return w.Flush()
}

// scatterPhase streams every partition's edges against its vertex states,
// appending updates binned by destination partition.
func (e *Engine[V, U]) scatterPhase(iter int) (int64, error) {
	k := e.pt.NumPartitions()
	// Buffered appenders for the destination bins.
	bins := make([]*storage.Writer, k)
	for i := 0; i < k; i++ {
		f, err := e.dev.Open(e.updateFile(i))
		if err != nil {
			return 0, err
		}
		bins[i] = storage.NewWriter(f)
	}
	var emitted int64
	urec := make([]byte, 4+e.ucodec.Size())
	for p := 0; p < k; p++ {
		lo, hi := e.pt.PartStart[p], e.pt.PartStart[p+1]
		if lo == hi {
			continue
		}
		var t time.Time
		if e.rec.On {
			t = time.Now()
		}
		if err := e.load(lo, hi); err != nil {
			return 0, err
		}
		if e.rec.On {
			t = e.rec.Since(obs.StageSio, iter, p, t)
		}
		f, err := e.dev.Open(e.pt.EdgeFile(p))
		if err != nil {
			return 0, err
		}
		s := graph.NewEdgeScanner(f)
		for s.Scan() {
			ed := s.Edge()
			e.streamed++
			e.opts.Clock.ComputeUnits(1, sim.CostEdgeScan)
			u, ok := e.prog.Scatter(iter, ed.Src, &e.verts[ed.Src-lo], ed.Dst)
			if !ok {
				continue
			}
			emitted++
			e.updates++
			e.opts.Clock.ComputeUnits(1, sim.CostMessageSend)
			binary.LittleEndian.PutUint32(urec, uint32(ed.Dst))
			e.ucodec.Encode(urec[4:], u)
			if _, err := bins[e.pt.partitionOf(ed.Dst)].Write(urec); err != nil {
				return 0, err
			}
		}
		if s.Err() != nil {
			return 0, fmt.Errorf("xstream: streaming edges of partition %d: %w", p, s.Err())
		}
		// Scatter may have read-modify-write semantics on the source
		// (e.g. clearing an "active" flag); write states back.
		if err := e.states.Store(e.verts, lo, e.stage); err != nil {
			return 0, err
		}
		if e.rec.On {
			e.rec.Since(obs.StageWorker, iter, p, t)
		}
	}
	for _, b := range bins {
		if err := b.Flush(); err != nil {
			return 0, err
		}
	}
	return emitted, nil
}

// gatherPhase streams every partition's update bin into its vertex
// states, then runs PostGather.
func (e *Engine[V, U]) gatherPhase(iter int) (bool, error) {
	k := e.pt.NumPartitions()
	active := false
	urec := make([]byte, 4+e.ucodec.Size())
	for p := 0; p < k; p++ {
		lo, hi := e.pt.PartStart[p], e.pt.PartStart[p+1]
		if lo == hi {
			continue
		}
		var t time.Time
		if e.rec.On {
			t = time.Now()
		}
		if err := e.load(lo, hi); err != nil {
			return false, err
		}
		f, err := e.dev.Open(e.updateFile(p))
		if err != nil {
			return false, err
		}
		if f.Size()%int64(len(urec)) != 0 {
			return false, fmt.Errorf("xstream: torn update file %q", e.updateFile(p))
		}
		r := storage.NewReader(f)
		for {
			err := r.ReadFull(urec)
			if err == io.EOF {
				break
			}
			if err != nil {
				return false, fmt.Errorf("xstream: streaming updates of partition %d: %w", p, err)
			}
			dst := graph.VertexID(binary.LittleEndian.Uint32(urec))
			e.prog.Gather(iter, dst, &e.verts[dst-lo], e.ucodec.Decode(urec[4:]))
			e.opts.Clock.ComputeUnits(1, sim.CostMessageApply)
		}
		if err := f.Truncate(0); err != nil {
			return false, err
		}
		for i := range e.verts {
			id := lo + graph.VertexID(i)
			if e.prog.PostGather(iter, id, &e.verts[i]) {
				active = true
			}
		}
		e.opts.Clock.ComputeUnits(int64(len(e.verts)), sim.CostVertexUpdate)
		if err := e.states.Store(e.verts, lo, e.stage); err != nil {
			return false, err
		}
		if e.rec.On {
			e.rec.Since(obs.StageDrain, iter, p, t)
		}
	}
	return active, nil
}

// load sizes e.verts for partition [lo, hi) and reads its states in.
func (e *Engine[V, U]) load(lo, hi graph.VertexID) error {
	n := int(hi - lo)
	e.verts = slices.Grow(e.verts[:0], n)[:n]
	e.stage = slices.Grow(e.stage[:0], n*e.vcodec.Size())
	return e.states.Load(e.verts, lo, e.stage)
}

// Values reads the final vertex states after Run.
func (e *Engine[V, U]) Values() ([]V, error) {
	if !e.finished {
		return nil, fmt.Errorf("xstream: Values before Run")
	}
	return e.states.ReadAll(e.pt.NumVertices)
}

// Cleanup removes the engine's runtime files.
func (e *Engine[V, U]) Cleanup() {
	e.dev.Remove(e.states.Name())
	for i := 0; i < e.pt.NumPartitions(); i++ {
		e.dev.Remove(e.updateFile(i))
	}
}
