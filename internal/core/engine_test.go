package core

import (
	"encoding/binary"
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/lattice"
	"graphz/internal/storage"
)

// minLabel is a connected-components-style test program: every vertex
// starts with its own ID as label and the minimum label propagates along
// out-edges until fixpoint. It exercises init, update, dynamic apply,
// cross-partition spill, MarkActive, and convergence.
type minVal struct {
	label, pending uint32
}

type minValCodec struct{}

func (minValCodec) Size() int { return 8 }

func (minValCodec) Encode(b []byte, v minVal) {
	binary.LittleEndian.PutUint32(b, v.label)
	binary.LittleEndian.PutUint32(b[4:], v.pending)
}

func (minValCodec) Decode(b []byte) minVal {
	return minVal{binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])}
}

type minLabel struct{}

func (minLabel) Init(id graph.VertexID, deg uint32) minVal {
	return minVal{label: uint32(id), pending: uint32(id)}
}

func (minLabel) Update(ctx *Context[uint32], id graph.VertexID, v *minVal, adj []graph.VertexID) {
	if ctx.Iteration() == 0 {
		for _, a := range adj {
			ctx.Send(a, v.label)
		}
		return
	}
	if v.pending < v.label {
		v.label = v.pending
		ctx.MarkActive()
		for _, a := range adj {
			ctx.Send(a, v.label)
		}
	}
}

// FrontierSafe: after iteration 0, without a message pending is not below
// label and Update does nothing.
func (minLabel) FrontierSafe() {}

func (minLabel) Apply(v *minVal, m uint32) {
	if m < v.pending {
		v.pending = m
	}
}

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
func buildDOS(t *testing.T, edges []graph.Edge) *dos.Graph {
	t.Helper()
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// relabeledEdges maps edges into the DOS graph's new ID space.
func relabeledEdges(t *testing.T, g *dos.Graph, edges []graph.Edge) []graph.Edge {
	t.Helper()
	o2n, err := g.OldToNew()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{Src: o2n[e.Src], Dst: o2n[e.Dst]}
	}
	return out
}

func runMinLabel(t *testing.T, g *dos.Graph, opts Options) (Result, []minVal) {
	t.Helper()
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{}, opts)
	if err != nil {
		t.Fatal(err)
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
	return res, vals
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

func (prProg) Apply(v *prVal, m float64) { v.acc += m }

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
		if dynVals[i].label != statVals[i].label {
			t.Fatalf("vertex %d: dynamic %d vs static %d", i, dynVals[i].label, statVals[i].label)
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

// TestPartitionOfMatchesDivision: the fixed-point partitionOf names the
// partition the division it replaced named — ⌊v·P/n⌋, fixed up by the same
// two loops — for every vertex of every small split (P past n included:
// partitions that hold no vertex), and at both sides of every boundary of
// large random ones.
func TestPartitionOfMatchesDivision(t *testing.T) {
	var eng Engine[minVal, uint32]
	byDivision := func(n int64, v graph.VertexID) int {
		p := len(eng.partStarts) - 1
		i := int(int64(v) * int64(p) / n)
		for i+1 < p && v >= eng.partStarts[i+1] {
			i++
		}
		for i > 0 && v < eng.partStarts[i] {
			i--
		}
		return i
	}
	check := func(n, p int64, v graph.VertexID) {
		got := eng.partitionOf(v)
		if got != byDivision(n, v) || v < eng.partStarts[got] || v >= eng.partStarts[got+1] {
			t.Fatalf("n=%d P=%d: partitionOf(%d) = %d covering [%d,%d), division says %d",
				n, p, v, got, eng.partStarts[got], eng.partStarts[got+1], byDivision(n, v))
		}
	}
	for n := int64(1); n <= 300; n++ {
		for p := int64(1); p <= n+2; p++ {
			eng.split(n, p)
			for v := int64(0); v < n; v++ {
				check(n, p, graph.VertexID(v))
			}
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
		eng.split(n, p)
		check(n, p, 0)
		check(n, p, graph.VertexID(n-1))
		for _, start := range eng.partStarts[1:p] {
			check(n, p, start-1)
			check(n, p, start)
		}
	}
}
