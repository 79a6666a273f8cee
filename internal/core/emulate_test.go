package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"graphz/internal/csr"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/graphchi"
	"graphz/internal/storage"
)

// chiMinProgram is a GraphChi-style min-label propagation program (the
// same fixpoint as the minLabel test program) used to validate the
// Section IV-E emulation against a known answer.
type chiMinProgram struct{}

func (chiMinProgram) Init(id graph.VertexID, inDeg, outDeg uint32) uint32 { return uint32(id) }

func (chiMinProgram) InitEdge(src, dst graph.VertexID) uint32 { return 0xFFFFFFFF }

func (chiMinProgram) Update(ctx *graphchi.Context, id graph.VertexID, v *uint32, in, out []graphchi.EdgeRef[uint32]) {
	newLabel := *v
	for _, e := range in {
		newLabel = min(newLabel, *e.Val)
	}
	changed := newLabel < *v
	*v = newLabel
	if changed || ctx.Iteration() == 0 {
		if changed {
			ctx.MarkActive()
		}
		for _, e := range out {
			*e.Val = *v
		}
	}
}

func TestEmulateGraphChiMinLabels(t *testing.T) {
	edges := gen.RMAT(8, 1200, gen.NaturalRMAT, 95)
	g := buildDOS(t, edges)
	layout := DOSLayout(g)
	inDeg, err := InDegrees(layout)
	must(t, err)
	res, vals, err := EmulateGraphChi[uint32, uint32](layout, chiMinProgram{},
		graph.Uint32Codec{}, graph.Uint32Codec{}, inDeg,
		Options{MemoryBudget: 256 << 20, DynamicMessages: true, MaxIterations: 50})
	must(t, err)
	// The emulation re-sends every edge value every round: only inactivity
	// convergence, which EmulateGraphChi sets, ends this run before the cap.
	if res.Iterations != 3 {
		t.Fatalf("ran %d iterations, want the 3 that inactivity convergence stops at", res.Iterations)
	}
	want := referenceMinLabels(g.NumVertices, relabeledEdges(t, g, edges))
	if !slices.Equal(vals, want) {
		t.Fatalf("labels %v, want %v", vals, want)
	}
}

// chiInsetProgram is deliberately NON-commutative and NON-associative: at
// every iteration past the warm-up it records a hash that depends on the
// *order-sensitive* fold of its in-edges sorted by neighbor ID. It checks
// that an update sees exactly one in-edge per true in-neighbor.
type chiInsetProgram struct {
	inNeighbors map[graph.VertexID][]graph.VertexID
	t           *testing.T
}

func (p *chiInsetProgram) Init(id graph.VertexID, inDeg, outDeg uint32) uint32 { return uint32(id) }

func (p *chiInsetProgram) InitEdge(src, dst graph.VertexID) uint32 { return uint32(src) }

func (p *chiInsetProgram) Update(ctx *graphchi.Context, id graph.VertexID, v *uint32, in, out []graphchi.EdgeRef[uint32]) {
	if ctx.Iteration() >= 1 {
		// After warm-up every in-neighbor has shipped exactly one
		// edge: check the multiset.
		want := p.inNeighbors[id]
		if len(in) != len(want) {
			p.t.Errorf("vertex %d at iter %d sees %d in-edges, want %d",
				id, ctx.Iteration(), len(in), len(want))
		}
		sortEdgeRefs(in)
		for i := range want {
			if i < len(in) && in[i].Neighbor != want[i] {
				p.t.Errorf("vertex %d in-edge %d from %d, want %d",
					id, i, in[i].Neighbor, want[i])
			}
		}
		// Order-sensitive fold (rotate-and-xor is not commutative).
		h := uint32(2166136261)
		for _, e := range in {
			h = (h<<5 | h>>27) ^ *e.Val
		}
		*v = h
	}
	for _, e := range out {
		*e.Val = uint32(id)
	}
	if ctx.Iteration() < 3 {
		ctx.MarkActive()
	}
}

func TestEmulateNonCommutativeGather(t *testing.T) {
	edges := gen.ErdosRenyi(80, 400, 96)
	g := buildDOS(t, edges)
	layout := DOSLayout(g)
	inDeg, err := InDegrees(layout)
	must(t, err)
	// True in-neighbor lists in the relabeled space (sorted, with
	// duplicates for parallel edges).
	rel := relabeledEdges(t, g, edges)
	inN := make(map[graph.VertexID][]graph.VertexID)
	for _, e := range rel {
		inN[e.Dst] = append(inN[e.Dst], e.Src)
	}
	for _, l := range inN {
		slices.Sort(l)
	}
	var vals [2][]uint32 // deterministic across runs
	for i := range vals {
		_, vals[i], err = EmulateGraphChi[uint32, uint32](layout, &chiInsetProgram{inNeighbors: inN, t: t},
			graph.Uint32Codec{}, graph.Uint32Codec{}, inDeg, Options{MemoryBudget: 256 << 20, DynamicMessages: true, MaxIterations: 4})
		must(t, err)
	}
	if !slices.Equal(vals[0], vals[1]) {
		t.Fatal("emulated non-commutative program not deterministic")
	}
}

func TestInDegrees(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 1, Dst: 0}}
	g := buildDOS(t, edges)
	layout := DOSLayout(g)
	inDeg, err := InDegrees(layout)
	must(t, err)
	o2n, err := g.OldToNew()
	must(t, err)
	if inDeg[o2n[1]] != 2 || inDeg[o2n[0]] != 1 || inDeg[o2n[2]] != 0 {
		t.Errorf("in-degrees = %v", inDeg)
	}
}

// TestInDegreesOutOfRangeEntry: InDegrees runs on layouts nobody has
// verified (a CSR build, host files behind -dos); an adjacency entry
// naming a vertex the layout does not have must come back as a typed
// error carrying its entry offset, not index the result slice.
func TestInDegreesOutOfRangeEntry(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}
	must(t, graph.WriteEdges(dev, "raw", edges))
	g, err := csr.Build(csr.BuildConfig{Dev: dev}, "raw", "g")
	must(t, err)
	if _, err := InDegrees(CSRLayout(g)); err != nil {
		t.Fatalf("in-degrees of the intact layout: %v", err)
	}
	f, err := dev.Open(g.EdgesFile())
	must(t, err)
	// Entry 2 (vertex 1's only neighbour) becomes vertex 3 of a 3-vertex graph.
	_, err = f.WriteAt([]byte{3, 0, 0, 0}, 2*4)
	must(t, err)
	_, err = InDegrees(CSRLayout(g))
	if !errors.Is(err, storage.ErrCorruptBlock) {
		t.Fatalf("InDegrees over an out-of-range entry = %v, want an error matching storage.ErrCorruptBlock", err)
	}
	if !strings.Contains(err.Error(), "entry 2 ") {
		t.Errorf("error does not name the entry offset: %v", err)
	}
}

// TestEmulatedCodecRoundTrip checks the variable-length frame encoding.
func TestEmulatedCodecRoundTrip(t *testing.T) {
	c := emulatedCodec[uint32, uint32]{
		vcodec: graph.Uint32Codec{}, ecodec: graph.Uint32Codec{}, maxInDeg: 3,
	}
	v := EmulatedVertex[uint32, uint32]{Value: 42}
	// Append two edges through Apply to populate the internal slices.
	var prog emulatedProgram[uint32, uint32]
	prog.Apply(&v, emulatedMsg[uint32]{Neighbor: 7, Val: 100})
	prog.Apply(&v, emulatedMsg[uint32]{Neighbor: 9, Val: 200})

	buf := make([]byte, c.Size())
	c.Encode(buf, v)
	got := c.Decode(buf)
	if got.Value != 42 || len(got.Edges) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Edges[0].Neighbor != 7 || *got.Edges[0].Val != 100 ||
		got.Edges[1].Neighbor != 9 || *got.Edges[1].Val != 200 {
		t.Errorf("edges corrupted: %+v", got.Edges)
	}
}
