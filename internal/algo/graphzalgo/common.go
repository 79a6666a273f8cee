// Package graphzalgo implements the paper's six benchmark algorithms —
// PageRank, BFS, Connected Components, SSSP, Belief Propagation, and
// Random Walk — in GraphZ's programming model (a VertexDataType, a
// MessageDataType, update(), and apply_message(); paper Section IV).
//
// Each algorithm lives in its own file so the repository's LOC
// comparisons (paper Tables I and IX) can count exactly the code a user
// would write.
package graphzalgo

import (
	"graphz/internal/core"
	"graphz/internal/graph"
)

// runLayout wires a program into the engine over a layout — degree-ordered
// storage (core.DOSLayout) everywhere but the Figure 7 ablations, which
// swap in CSR — executes it and returns the result and the final states.
func runLayout[V, M any](l core.Layout, prog core.Program[V, M], vc graph.Codec[V], mc graph.Codec[M], opts core.Options) (core.Result, []V, error) {
	eng, err := core.New[V, M](l, prog, vc, mc, opts)
	if err != nil {
		return core.Result{}, nil, err
	}
	res, err := eng.Run()
	if err != nil {
		return core.Result{}, nil, err
	}
	vals, err := eng.Values()
	if err != nil {
		return core.Result{}, nil, err
	}
	eng.Cleanup()
	return res, vals, nil
}
