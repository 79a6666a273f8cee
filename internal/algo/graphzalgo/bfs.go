package graphzalgo

import (
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/graph"
)

// Unreached marks a vertex BFS has not visited.
const Unreached = uint32(0xFFFFFFFF)

// bfsVal follows the paper's BFS description (Section IV-A): the current
// level (A) and a possible value change delivered by messages (B).
type bfsVal = graph.U32Pair

type bfsProgram struct {
	source graph.VertexID
}

func (p bfsProgram) Init(id graph.VertexID, deg uint32) bfsVal {
	if id == p.source {
		return bfsVal{A: Unreached, B: 0}
	}
	return bfsVal{A: Unreached, B: Unreached}
}

func (p bfsProgram) Update(ctx *core.Context[uint32], id graph.VertexID, v *bfsVal, adj []graph.VertexID) {
	if v.B < v.A {
		v.A = v.B
		ctx.SendAll(adj, v.A+1)
	}
}

func (bfsProgram) Apply(v *bfsVal, m uint32) bool {
	if m < v.B {
		v.B = m
		return true
	}
	return false
}

// InitialFrontier declares core.FrontierSafe: unless a message lowered B
// (Apply reports it) B is not below A, and Update does nothing — after
// Init, everywhere but at the source.
func (p bfsProgram) InitialFrontier() []graph.VertexID { return []graph.VertexID{p.source} }

// ApplyAll is the optional bulk form (core.BulkApplier): Apply, inlined.
func (p bfsProgram) ApplyAll(f *core.Frontier, vs []bfsVal, lo graph.VertexID, dsts []graph.VertexID, m uint32) int {
	return core.ApplyAll(f, vs, lo, dsts, m, func(v *bfsVal, m uint32) bool { return p.Apply(v, m) })
}

// BFS computes hop counts from source (in the graph's ID space) along
// out-edges, running until quiescent. Unreached vertices report
// Unreached.
func BFS(g *dos.Graph, opts core.Options, source graph.VertexID) (core.Result, []uint32, error) {
	return BFSLayout(core.DOSLayout(g), opts, source)
}

// BFSLayout is BFS over an explicit layout (for the ablations).
func BFSLayout(l core.Layout, opts core.Options, source graph.VertexID) (core.Result, []uint32, error) {
	res, vals, err := runLayout[bfsVal, uint32](l, bfsProgram{source: source}, graph.U32PairCodec, graph.Uint32Codec{}, opts)
	if err != nil {
		return core.Result{}, nil, err
	}
	levels := make([]uint32, len(vals))
	for i, v := range vals {
		levels[i] = v.A
	}
	return res, levels, nil
}
