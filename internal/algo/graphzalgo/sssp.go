package graphzalgo

import (
	"math"

	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/graph"
)

// Inf32 marks an unreached SSSP vertex.
var Inf32 = float32(math.Inf(1))

// ssspVal holds the settled distance (A) and the best relaxation proposed
// by inbound messages (B).
type ssspVal = graph.F32Pair

// ssspProgram relaxes edges Bellman-Ford style; edge weights come from
// the deterministic per-edge hash (see graph.EdgeWeight and DESIGN.md's
// substitution note).
type ssspProgram struct {
	source graph.VertexID
}

func (p ssspProgram) Init(id graph.VertexID, deg uint32) ssspVal {
	if id == p.source {
		return ssspVal{A: Inf32, B: 0}
	}
	return ssspVal{A: Inf32, B: Inf32}
}

func (p ssspProgram) Update(ctx *core.Context[float32], id graph.VertexID, v *ssspVal, adj []graph.VertexID) {
	if v.B < v.A {
		v.A = v.B
		ctx.MarkActive()
		for _, a := range adj {
			ctx.Send(a, v.A+graph.EdgeWeight(id, a))
		}
	}
}

func (ssspProgram) Apply(v *ssspVal, m float32) {
	if m < v.B {
		v.B = m
	}
}

// FrontierSafe declares core.FrontierSafe: without a message B is not below
// A, and Update does nothing.
func (ssspProgram) FrontierSafe() {}

// SSSP computes single-source shortest path distances from source (in
// the graph's ID space) with hash-derived positive edge weights, running
// until quiescent. Unreached vertices report +Inf.
func SSSP(g *dos.Graph, opts core.Options, source graph.VertexID) (core.Result, []float32, error) {
	return SSSPLayout(core.DOSLayout(g), opts, source)
}

// SSSPLayout is SSSP over an explicit layout (for the ablations).
func SSSPLayout(l core.Layout, opts core.Options, source graph.VertexID) (core.Result, []float32, error) {
	res, vals, err := runLayout[ssspVal, float32](l, ssspProgram{source: source}, graph.F32PairCodec, graph.Float32Codec{}, opts)
	if err != nil {
		return core.Result{}, nil, err
	}
	dists := make([]float32, len(vals))
	for i, v := range vals {
		dists[i] = v.A
	}
	return res, dists, nil
}
