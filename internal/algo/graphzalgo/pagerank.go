package graphzalgo

import (
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/graph"
)

// prVal is the paper's PageRank VertexDataType (Algorithm 3): the current
// rank (A) and the votes accumulated from inbound messages (B).
type prVal = graph.F32Pair

// prProgram is the paper's Algorithm 4 with the damping of Equation 2:
// each update folds the accumulated votes into a new rank and scatters
// rank/degree votes to the out-neighbors; apply_message accumulates.
type prProgram struct {
	damping float32
}

func (prProgram) Init(id graph.VertexID, deg uint32) prVal {
	return prVal{A: 1}
}

func (p prProgram) Update(ctx *core.Context[float32], id graph.VertexID, v *prVal, adj []graph.VertexID) {
	if ctx.Iteration() > 0 {
		v.A = (1 - p.damping) + p.damping*v.B
		v.B = 0
	}
	if len(adj) == 0 {
		return
	}
	ctx.SendAll(adj, v.A/float32(len(adj)))
}

func (prProgram) Apply(v *prVal, m float32) {
	v.B += m
}

// ApplyAll is the optional bulk form (core.BulkApplier): Apply, inlined.
func (p prProgram) ApplyAll(vs []prVal, lo graph.VertexID, dsts []graph.VertexID, m float32) int {
	return core.ApplyAll(vs, lo, dsts, m, func(v *prVal, m float32) { p.Apply(v, m) })
}

// PageRank runs the given number of damped PageRank iterations and
// returns the ranks by the graph's (degree-ordered) vertex ID. Ranks are
// unnormalized: they sum to roughly the vertex count, as in the paper's
// formulation.
func PageRank(g *dos.Graph, opts core.Options, iterations int, damping float32) (core.Result, []float32, error) {
	return PageRankLayout(core.DOSLayout(g), opts, iterations, damping)
}

// PageRankLayout is PageRank over an explicit layout; the Figure 7
// ablations use it to swap storage formats.
func PageRankLayout(l core.Layout, opts core.Options, iterations int, damping float32) (core.Result, []float32, error) {
	opts.MaxIterations = iterations
	res, vals, err := runLayout[prVal, float32](l, prProgram{damping: damping}, graph.F32PairCodec, graph.Float32Codec{}, opts)
	if err != nil {
		return core.Result{}, nil, err
	}
	// The rank folded during the final update is the result; votes
	// still in the accumulator are a partial round (only senders
	// ordered after the vertex have contributed) and must not be
	// folded.
	ranks := make([]float32, len(vals))
	for i, v := range vals {
		ranks[i] = v.A
	}
	return res, ranks, nil
}
