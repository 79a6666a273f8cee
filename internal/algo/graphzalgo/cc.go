package graphzalgo

import (
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/graph"
)

// ccVal holds a vertex's component label (A) and the smallest label its
// inbound messages have proposed (B).
type ccVal = graph.U32Pair

// ccProgram propagates the minimum vertex ID along out-edges until
// fixpoint. On a symmetrized graph (each edge stored in both directions,
// which is how the harness prepares CC inputs) the fixpoint labels are
// the weakly-connected components.
type ccProgram struct{}

func (ccProgram) Init(id graph.VertexID, deg uint32) ccVal {
	return ccVal{A: uint32(id), B: uint32(id)}
}

func (ccProgram) Update(ctx *core.Context[uint32], id graph.VertexID, v *ccVal, adj []graph.VertexID) {
	if ctx.Iteration() == 0 {
		ctx.SendAll(adj, v.A)
		if v.B < v.A {
			ctx.MarkActive() // a message lowered B before the broadcast: act on it next iteration
		}
		return
	}
	if v.B < v.A {
		v.A = v.B
		ctx.SendAll(adj, v.A)
	}
}

func (ccProgram) Apply(v *ccVal, m uint32) bool {
	if m < v.B {
		v.B = m
		return true
	}
	return false
}

// InitialFrontier declares core.FrontierSafe: every vertex (nil)
// broadcasts in iteration 0, and after it, unless a message lowered B
// (Apply reports it, or the broadcast marked it) B is not below A, and
// Update does nothing.
func (ccProgram) InitialFrontier() []graph.VertexID { return nil }

// ConnectedComponents labels every vertex with the smallest vertex ID
// that reaches it, running until quiescent. Symmetrize the graph first
// for weakly-connected components.
func ConnectedComponents(g *dos.Graph, opts core.Options) (core.Result, []uint32, error) {
	return ConnectedComponentsLayout(core.DOSLayout(g), opts)
}

// ConnectedComponentsLayout is CC over an explicit layout (for the
// ablations).
func ConnectedComponentsLayout(l core.Layout, opts core.Options) (core.Result, []uint32, error) {
	res, vals, err := runLayout[ccVal, uint32](l, ccProgram{}, graph.U32PairCodec, graph.Uint32Codec{}, opts)
	if err != nil {
		return core.Result{}, nil, err
	}
	labels := make([]uint32, len(vals))
	for i, v := range vals {
		labels[i] = v.A
	}
	return res, labels, nil
}
