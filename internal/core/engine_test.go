package core

import (
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/lattice"
)

// minLabel is a connected-components-style test program: every vertex
// starts with its own ID as label and the minimum label propagates along
// out-edges until fixpoint. It exercises init, update, dynamic apply,
// cross-partition spill, MarkActive, and convergence.
type minVal = graph.U32Pair // A is the label, B the smallest label sent to it

type minLabel struct{}

func (minLabel) Init(id graph.VertexID, deg uint32) minVal {
	return minVal{A: uint32(id), B: uint32(id)}
}

func (minLabel) Update(ctx *Context[uint32], id graph.VertexID, v *minVal, adj []graph.VertexID) {
	if ctx.Iteration() > 0 {
		if v.B >= v.A {
			return
		}
		v.A = v.B
		ctx.MarkActive()
	} else if v.B < v.A {
		ctx.MarkActive() // iteration 0 broadcasts A: a lowered B waits for iteration 1
	}
	for _, a := range adj {
		ctx.Send(a, v.A)
	}
}

// InitialFrontier: every vertex broadcasts in iteration 0 (nil); after it,
// without a message or a mark B is not below A and Update does nothing.
func (minLabel) InitialFrontier() []graph.VertexID { return nil }

func (minLabel) Apply(v *minVal, m uint32) bool {
	v.B, m = min(v.B, m), v.B
	return v.B != m
}

// undeclared hides a program's delegates and FrontierSafe declaration.
type undeclared[V, M any] struct{ Program[V, M] }

// referenceMinLabels computes the fixpoint in memory over the layout's ID
// space.
func referenceMinLabels(n int, edges []graph.Edge) []uint32 {
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if labels[e.Src] < labels[e.Dst] {
				labels[e.Dst] = labels[e.Src]
				changed = true
			}
		}
	}
	return labels
}

// buildDOS converts edges on a fresh null device.
func buildDOS(t testing.TB, edges []graph.Edge) *dos.Graph {
	t.Helper()
	return buildDOSCodec(t, edges, nil, 0)
}

// relabeledEdges maps edges into the DOS graph's new ID space.
func relabeledEdges(t *testing.T, g *dos.Graph, edges []graph.Edge) []graph.Edge {
	t.Helper()
	o2n, err := g.OldToNew()
	must(t, err)
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{Src: o2n[e.Src], Dst: o2n[e.Dst]}
	}
	return out
}

func runMinLabel(t *testing.T, g *dos.Graph, opts Options) (Result, []minVal) {
	t.Helper()
	res, vals, err := minLabelRun(DOSLayout(g), minLabel{}, opts)
	must(t, err)
	return res, vals
}

// minLabelRun is runMinLabel of prog over any layout, failing by its error
// rather than the test's, so a goroutine may call it.
func minLabelRun(l Layout, prog Program[minVal, uint32], opts Options) (Result, []minVal, error) {
	eng, err := New[minVal, uint32](l, prog, graph.U32PairCodec, graph.Uint32Codec{}, opts)
	if err != nil {
		return Result{}, nil, err
	}
	defer eng.Cleanup()
	res, err := eng.Run()
	if err != nil {
		return Result{}, nil, err
	}
	vals, err := eng.Values()
	return res, vals, err
}

// prVal / prProg is PageRank with ordered dynamic messages: every vertex
// pushes rank shares every iteration. Floating-point addition is
// order-sensitive, so byte equality proves the apply order matched exactly.
type prVal struct{ rank, acc float64 }

type prCodec struct{}

func (prCodec) Size() int { return 16 }

func (prCodec) Encode(b []byte, v prVal) {
	graph.Float64Codec{}.Encode(b, v.rank)
	graph.Float64Codec{}.Encode(b[8:], v.acc)
}

func (prCodec) Decode(b []byte) prVal {
	return prVal{rank: graph.Float64Codec{}.Decode(b), acc: graph.Float64Codec{}.Decode(b[8:])}
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

func (prProg) Apply(v *prVal, m float64) bool {
	v.acc += m
	return true
}

// budgetForPartitions builds a memory budget that should yield roughly
// wantP partitions for a graph with the given vertex state size.
func budgetForPartitions(g *dos.Graph, vsize, wantP, msgBuf int64) int64 {
	avail := (int64(g.NumVertices) + wantP - 1) / wantP * vsize // the largest partition's states
	return pipelineOverheadBytes + g.IndexBytes() + g.BlockTableBytes() + avail + wantP*msgBuf
}

func TestEngineStaticMessagesSameFixpoint(t *testing.T) {
	edges := gen.RMAT(8, 1200, gen.NaturalRMAT, 23)
	g := buildDOS(t, edges)
	budget := budgetForPartitions(g, 8, 3, 64)
	dynRes, dynVals := runMinLabel(t, g, Options{MemoryBudget: budget, DynamicMessages: true, MsgBufferBytes: 64})
	statRes, statVals := runMinLabel(t, g, Options{MemoryBudget: budget, DynamicMessages: false, MsgBufferBytes: 64})
	for i := range dynVals {
		if dynVals[i].A != statVals[i].A {
			t.Fatalf("vertex %d: dynamic %d vs static %d", i, dynVals[i].A, statVals[i].A)
		}
	}
	// Static messages must spill strictly more (every message goes to
	// the store, even in-partition ones).
	if statRes.MessagesSpilled <= dynRes.MessagesSpilled {
		t.Errorf("static spilled %d <= dynamic spilled %d",
			statRes.MessagesSpilled, dynRes.MessagesSpilled)
	}
	// Dynamic messages should converge at least as fast.
	if statRes.Iterations < dynRes.Iterations {
		t.Errorf("static converged in %d iterations, dynamic took %d",
			statRes.Iterations, dynRes.Iterations)
	}
}

// TestPartitionOfMatchesDivision: partitionOf names the partition whose
// range holds v for every vertex of every small split (P past n included:
// empty partitions) and at both sides of every boundary of large random
// ones; its estimate is never above ⌊v·P/n⌋, nor that above the partition,
// and an ID past the last vertex (n, the ID space's top) routes to the last.
func TestPartitionOfMatchesDivision(t *testing.T) {
	check := func(s split, n, p int64, v graph.VertexID) {
		got, d := s.partitionOf(v), graph.VertexID(min(int64(v), n-1))
		est, div := int(uint64(d)*s.scale>>32), int(int64(d)*p/n)
		if est > div || div > got || d < s.starts[got] || d >= s.starts[got+1] || int64(v) >= n && got != int(p)-1 {
			t.Fatalf("n=%d P=%d: partitionOf(%d) = %d covering [%d,%d), estimate %d, division %d",
				n, p, v, got, s.starts[got], s.starts[got+1], est, div)
		}
	}
	for n := int64(1); n <= 300; n++ {
		for p := int64(1); p <= n+2; p++ {
			s := newSplit(n, p)
			for v := int64(0); v <= n; v++ {
				check(s, n, p, graph.VertexID(v))
			}
			check(s, n, p, ^graph.VertexID(0))
		}
	}
	rng := uint64(77)
	for trial := 0; trial < 60; trial++ {
		n := int64(1 + lattice.SplitMix(&rng)%(1<<32-1))
		if trial%3 == 0 {
			n = 1<<32 - 1 - int64(lattice.SplitMix(&rng)%1000) // the top of the ID space
		}
		p := min(int64(1+lattice.SplitMix(&rng)%maxPartitions), n)
		if trial%5 == 0 {
			p = min(maxPartitions, n)
		}
		s := newSplit(n, p)
		check(s, n, p, 0)
		check(s, n, p, ^graph.VertexID(0))
		for _, start := range s.starts[1:] { // the last is n
			check(s, n, p, start-1)
			check(s, n, p, start)
		}
	}
}
