package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
)

// The parallel Worker's contract is exact equivalence: for any program,
// any graph, and any partitioning, WorkerParallelism > 1 must produce
// byte-identical vertex states and identical counters to the sequential
// engine. The tests below check that property across three programs with
// different message behavior — min-label propagation (sparse dynamic
// messages), PageRank (dense forward dynamic messages, float order
// sensitivity), and a hash-mixing program with static messages whose
// non-commutative Apply detects any drain-order perturbation.

// runProg runs prog over g and returns the result plus the encoded
// vertex states, so comparisons are on the exact state bytes.
func runProg[V, M any](t *testing.T, g *dos.Graph, prog Program[V, M], vc graph.Codec[V], mc graph.Codec[M], opts Options) (Result, []byte) {
	t.Helper()
	return runProgTuned(t, g, prog, vc, mc, opts, nil)
}

// runProgTuned is runProg with a hook on the engine between New and Run,
// for tests that reach an unexported seam (forceSparse).
func runProgTuned[V, M any](t *testing.T, g *dos.Graph, prog Program[V, M], vc graph.Codec[V], mc graph.Codec[M], opts Options, tune func(*Engine[V, M])) (Result, []byte) {
	t.Helper()
	eng, err := New[V, M](DOSLayout(g), prog, vc, mc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tune != nil {
		tune(eng)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := eng.Values()
	if err != nil {
		t.Fatal(err)
	}
	eng.Cleanup()
	enc := make([]byte, len(vals)*vc.Size())
	for i, v := range vals {
		vc.Encode(enc[i*vc.Size():], v)
	}
	return res, enc
}

// checkParallelMatches runs prog sequentially and at several parallelism
// levels and requires identical Results and state bytes.
func checkParallelMatches[V, M any](t *testing.T, g *dos.Graph, prog Program[V, M], vc graph.Codec[V], mc graph.Codec[M], opts Options) {
	t.Helper()
	seqRes, seqBytes := runProg[V, M](t, g, prog, vc, mc, opts)
	for _, w := range []int{2, 4} {
		po := opts
		po.WorkerParallelism = w
		pRes, pBytes := runProg[V, M](t, g, prog, vc, mc, po)
		if seqRes != pRes {
			t.Errorf("workers=%d: result %+v differs from sequential %+v", w, pRes, seqRes)
		}
		if !bytes.Equal(seqBytes, pBytes) {
			for i := 0; i < len(seqBytes)/vc.Size(); i++ {
				a := seqBytes[i*vc.Size() : (i+1)*vc.Size()]
				b := pBytes[i*vc.Size() : (i+1)*vc.Size()]
				if !bytes.Equal(a, b) {
					t.Fatalf("workers=%d: vertex %d state bytes %x, sequential %x", w, i, b, a)
				}
			}
		}
	}
}

func TestParallelWorkerMinLabelMultiPartition(t *testing.T) {
	for _, dm := range []bool{true, false} {
		edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 31)
		g := buildDOS(t, edges)
		// Tight budget: several partitions, tiny message buffers so
		// cross-partition traffic spills mid-iteration.
		opts := Options{
			MemoryBudget:    budgetForPartitions(g, 8, 4, 64),
			DynamicMessages: dm,
			MsgBufferBytes:  64,
		}
		checkParallelMatches[minVal, uint32](t, g, minLabel{}, minValCodec{}, graph.Uint32Codec{}, opts)
		// The parallel runs must also still be correct, not just
		// self-consistent.
		po := opts
		po.WorkerParallelism = 4
		_, vals := runMinLabel(t, g, po)
		want := referenceMinLabels(g.NumVertices, relabeledEdges(t, g, edges))
		for i := range want {
			if vals[i].label != want[i] {
				t.Fatalf("dm=%v: vertex %d label = %d, want %d", dm, i, vals[i].label, want[i])
			}
		}
	}
}

// prVal / prProg is PageRank with ordered dynamic messages: every vertex
// pushes rank shares every iteration, so nearly every chunk receives a
// forward in-partition message and the parallel Worker is forced through
// its re-execution fallback. Floating-point addition is order-sensitive,
// so byte equality proves the apply order matched exactly.
type prVal struct{ rank, acc float64 }

type prCodec struct{}

func (prCodec) Size() int { return 16 }

func (prCodec) Encode(b []byte, v prVal) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v.rank))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(v.acc))
}

func (prCodec) Decode(b []byte) prVal {
	return prVal{
		rank: math.Float64frombits(binary.LittleEndian.Uint64(b)),
		acc:  math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}
}

type f64Codec struct{}

func (f64Codec) Size() int { return 8 }

func (f64Codec) Encode(b []byte, m float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(m))
}

func (f64Codec) Decode(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

type prProg struct{}

func (prProg) Init(id graph.VertexID, deg uint32) prVal { return prVal{rank: 1} }

func (prProg) Update(ctx *Context[float64], id graph.VertexID, v *prVal, adj []graph.VertexID) {
	if ctx.Iteration() > 0 {
		v.rank = 0.15 + 0.85*v.acc
		v.acc = 0
	}
	if len(adj) > 0 {
		share := v.rank / float64(len(adj))
		for _, a := range adj {
			ctx.Send(a, share)
		}
	}
	ctx.MarkActive()
}

func (prProg) Apply(v *prVal, m float64) { v.acc += m }

func TestParallelWorkerPageRank(t *testing.T) {
	edges := gen.RMAT(9, 5000, gen.NaturalRMAT, 32)
	g := buildDOS(t, edges)
	opts := Options{
		MemoryBudget:    budgetForPartitions(g, 16, 4, 128),
		DynamicMessages: true,
		MsgBufferBytes:  128,
		MaxIterations:   5,
	}
	checkParallelMatches[prVal, float64](t, g, prProg{}, prCodec{}, f64Codec{}, opts)
}

// mixVal / mixProg scatters hash-mixed values with static messages
// (DynamicMessages off): every message goes through the buffer/spill
// store and is drained next iteration. Apply is deliberately
// non-commutative, so any reordering of the spill stream — the replay
// path the parallel Worker routes all messages through — changes the
// fixpoint bytes.
type mixVal struct{ h uint32 }

type mixCodec struct{}

func (mixCodec) Size() int                 { return 4 }
func (mixCodec) Encode(b []byte, v mixVal) { binary.LittleEndian.PutUint32(b, v.h) }
func (mixCodec) Decode(b []byte) mixVal    { return mixVal{binary.LittleEndian.Uint32(b)} }

type mixProg struct{ rounds int }

func (mixProg) Init(id graph.VertexID, deg uint32) mixVal {
	return mixVal{h: uint32(id)*2654435761 + deg}
}

func (p mixProg) Update(ctx *Context[uint32], id graph.VertexID, v *mixVal, adj []graph.VertexID) {
	acc := v.h
	for _, a := range adj {
		x := acc ^ uint32(a)*2654435761
		for r := 0; r < p.rounds; r++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
		}
		ctx.Send(a, x)
		acc = acc*31 + x
	}
	v.h = acc
	ctx.MarkActive()
}

func (mixProg) Apply(v *mixVal, m uint32) { v.h = v.h*1664525 + m }

func TestParallelWorkerStaticMessages(t *testing.T) {
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 33)
	g := buildDOS(t, edges)
	opts := Options{
		MemoryBudget:   budgetForPartitions(g, 4, 3, 64),
		MsgBufferBytes: 64,
		MaxIterations:  4,
	}
	checkParallelMatches[mixVal, uint32](t, g, mixProg{rounds: 4}, mixCodec{}, graph.Uint32Codec{}, opts)
}

func TestParallelWorkerCachedAdjacency(t *testing.T) {
	edges := gen.RMAT(8, 2500, gen.NaturalRMAT, 34)
	g := buildDOS(t, edges)
	opts := Options{
		MemoryBudget:    64 << 20,
		DynamicMessages: true,
		CacheAdjacency:  true,
	}
	checkParallelMatches[minVal, uint32](t, g, minLabel{}, minValCodec{}, graph.Uint32Codec{}, opts)
	po := opts
	po.WorkerParallelism = 4
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{}, po)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !eng.AdjacencyCached() {
		t.Error("cache did not engage under a large budget")
	}
	eng.Cleanup()
}

// TestParallelWorkerRandomizedGraphs fuzzes the equivalence property over
// graph shapes, seeds, and partition counts.
func TestParallelWorkerRandomizedGraphs(t *testing.T) {
	for seed := uint64(40); seed < 46; seed++ {
		scale := 7 + int(seed%3)
		nedges := 500 * (1 + int(seed%4))
		edges := gen.RMAT(scale, nedges, gen.NaturalRMAT, seed)
		g := buildDOS(t, edges)
		wantP := 2 + int64(seed%3)
		opts := Options{
			MemoryBudget:    budgetForPartitions(g, 8, wantP, 64),
			DynamicMessages: seed%2 == 0,
			MsgBufferBytes:  64,
		}
		checkParallelMatches[minVal, uint32](t, g, minLabel{}, minValCodec{}, graph.Uint32Codec{}, opts)
	}
}

// heavyProg is the compute-heavy, message-free program used for Worker
// speedup measurements: many hash rounds per edge, no sends, so chunks
// are never invalidated and speculation gets full parallelism.
type heavyProg struct{ rounds int }

func (heavyProg) Init(id graph.VertexID, deg uint32) mixVal {
	return mixVal{h: uint32(id)*2654435761 + deg}
}

func (p heavyProg) Update(ctx *Context[uint32], id graph.VertexID, v *mixVal, adj []graph.VertexID) {
	x := v.h
	for _, a := range adj {
		y := x ^ uint32(a)*2654435761
		for r := 0; r < p.rounds; r++ {
			y ^= y << 13
			y ^= y >> 17
			y ^= y << 5
		}
		x = x*31 + y
	}
	v.h = x
	ctx.MarkActive()
}

func (heavyProg) Apply(v *mixVal, m uint32) {}

// TestParallelWorkerSpeedup measures the headline property: on a
// compute-heavy program the chunked Worker at 4 goroutines must beat the
// sequential Worker by a healthy margin while staying byte-identical
// (the equivalence is asserted by the tests above; this one only times).
// Skipped where timing is meaningless: -short, race builds, small hosts.
func TestParallelWorkerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing test; race instrumentation distorts it")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skip("needs at least 4 CPUs")
	}
	edges := gen.RMAT(12, 150000, gen.NaturalRMAT, 60)
	g := buildDOS(t, edges)
	opts := Options{MemoryBudget: 256 << 20, DynamicMessages: true, MaxIterations: 3}
	run := func(w int) time.Duration {
		best := time.Duration(1 << 62)
		for try := 0; try < 3; try++ {
			o := opts
			o.WorkerParallelism = w
			eng, err := New[mixVal, uint32](DOSLayout(g), heavyProg{rounds: 64}, mixCodec{}, graph.Uint32Codec{}, o)
			if err != nil {
				t.Fatal(err)
			}
			t0 := time.Now()
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
			eng.Cleanup()
		}
		return best
	}
	seq := run(1)
	par := run(4)
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, 4 workers %v: %.2fx", seq, par, speedup)
	if speedup < 1.3 {
		t.Errorf("worker speedup %.2fx at 4 workers, want >= 1.3x", speedup)
	}
}

// TestParallelWorkerObserved exercises the measured path (registry +
// tracer, shared pipeStats, concurrent entry streams) with the parallel
// Worker — this is the configuration `go test -race ./internal/core`
// must prove race-free — and checks the worker sub-stage counters.
func TestParallelWorkerObserved(t *testing.T) {
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 35)
	g := buildDOS(t, edges)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(io.Discard)
	opts := Options{
		MemoryBudget:      budgetForPartitions(g, 8, 4, 64),
		DynamicMessages:   true,
		MsgBufferBytes:    64,
		WorkerParallelism: 4,
		Obs:               reg,
		Trace:             tr,
	}
	res, pBytes := runProg[minVal, uint32](t, g, minLabel{}, minValCodec{}, graph.Uint32Codec{}, opts)
	seqOpts := opts
	seqOpts.WorkerParallelism = 0
	seqOpts.Obs = nil
	seqOpts.Trace = nil
	seqRes, seqBytes := runProg[minVal, uint32](t, g, minLabel{}, minValCodec{}, graph.Uint32Codec{}, seqOpts)
	if !bytes.Equal(seqBytes, pBytes) {
		t.Error("observed parallel run diverged from sequential state bytes")
	}
	// Stage wall times differ run to run; every counter must not.
	res.Stages, seqRes.Stages = obs.StageTimes{}, obs.StageTimes{}
	if res != seqRes {
		t.Errorf("observed parallel result %+v differs from sequential %+v", res, seqRes)
	}

	snap := reg.Counters()
	if snap["graphz_worker_chunks_total"] == 0 {
		t.Error("graphz_worker_chunks_total not incremented by the parallel Worker")
	}
	// minLabel's iteration-0 flood sends forward in-partition messages,
	// so some chunks must have been invalidated and re-executed.
	if snap["graphz_worker_chunk_reexecs_total"] == 0 {
		t.Error("graphz_worker_chunk_reexecs_total = 0; expected invalidations under dynamic messages")
	}
	if got, want := snap["graphz_worker_chunk_reexecs_total"], snap["graphz_worker_chunks_total"]; got > want {
		t.Errorf("reexecs %d > chunks %d", got, want)
	}
}
