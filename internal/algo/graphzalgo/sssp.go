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
		ms := ctx.Messages(len(adj))
		for i, a := range adj {
			ms[i] = v.A + graph.EdgeWeight(id, a)
		}
		ctx.SendEach(adj, ms)
	}
}

func (ssspProgram) Apply(v *ssspVal, m float32) bool {
	if m < v.B {
		v.B = m
		return true
	}
	return false
}

// InitialFrontier declares core.FrontierSafe: unless a message lowered B
// (Apply reports it) B is not below A, and Update does nothing — after
// Init, everywhere but at the source.
func (p ssspProgram) InitialFrontier() []graph.VertexID { return []graph.VertexID{p.source} }

// ApplyEach is the optional per-edge bulk form (core.EachApplier): Apply,
// inlined.
func (p ssspProgram) ApplyEach(f *core.Frontier, vs []ssspVal, lo graph.VertexID, dsts []graph.VertexID, ms []float32) int {
	return core.ApplyEach(f, vs, lo, dsts, ms, func(v *ssspVal, m float32) bool { return p.Apply(v, m) })
}

// UpdateRun is the optional run form (core.RunUpdater): Update, inlined
// over a degree run.
func (p ssspProgram) UpdateRun(ctx *core.Context[float32], lo graph.VertexID, vs []ssspVal, adj []graph.VertexID, deg uint32) {
	core.UpdateRun(ctx, lo, vs, adj, deg, func(ctx *core.Context[float32], id graph.VertexID, v *ssspVal, a []graph.VertexID) {
		p.Update(ctx, id, v, a)
	})
}

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
