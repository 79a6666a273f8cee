package bench

import (
	"fmt"
	"strings"

	"graphz/internal/algo/graphzalgo"
	"graphz/internal/core"
	"graphz/internal/graph"
)

// One shared dispatch from an algorithm name to a core-engine run, used
// by the benchmark harness, the graphz-serve job runner and graphz-run:
// all three hand an (algo, layout, options) triple here, so a served job
// executes exactly the code path the CLI and the evaluation tables
// measure.

// AlgoParams carries the per-algorithm knobs. Zero values mean the
// benchmark defaults (Section VI-A: 10 PR iterations at 0.85 damping,
// 8 BP and RW iterations, 1 walker, a 200-iteration convergence cap).
type AlgoParams struct {
	// Source is the BFS/SSSP root, in the layout's vertex-ID space.
	Source graph.VertexID
	// Iterations bounds PR/BP/RW runs.
	Iterations int
	// Damping is PageRank's damping factor.
	Damping float32
	// Walkers is RW's walkers seeded per vertex.
	Walkers int
	// MaxIterations caps the convergence-driven algorithms (BFS, CC,
	// SSSP); it is only applied when the caller left
	// Options.MaxIterations unset.
	MaxIterations int
}

// withDefaults fills unset knobs with the benchmark constants.
func (p AlgoParams) withDefaults(a Algo) AlgoParams {
	if p.Iterations <= 0 {
		switch a {
		case PR:
			p.Iterations = prIterations
		case BP:
			p.Iterations = bpIterations
		case RW:
			p.Iterations = rwIterations
		}
	}
	if p.Damping <= 0 {
		p.Damping = prDamping
	}
	if p.Walkers <= 0 {
		p.Walkers = rwWalkers
	}
	if p.MaxIterations <= 0 {
		p.MaxIterations = maxConvergeIters
	}
	return p
}

// ParseAlgo resolves a case-insensitive algorithm name, accepting the
// paper's short codes and the obvious long spellings.
func ParseAlgo(s string) (Algo, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "PR", "PAGERANK":
		return PR, nil
	case "BFS":
		return BFS, nil
	case "CC", "COMPONENTS", "CONNECTEDCOMPONENTS":
		return CC, nil
	case "SSSP":
		return SSSP, nil
	case "BP", "BELIEFPROPAGATION":
		return BP, nil
	case "RW", "RANDOMWALK":
		return RW, nil
	}
	return "", fmt.Errorf("bench: unknown algorithm %q (want one of %v)", s, Algos)
}

// ExecAlgo runs algorithm a on the core engine over layout with opts,
// returning the engine result and the per-vertex values widened to
// float64 (distances/labels/visit counts for the integer-valued
// algorithms, ranks/beliefs for the float-valued ones). The values are in
// the layout's (degree-ordered) vertex-ID space.
func ExecAlgo(a Algo, layout core.Layout, opts core.Options, p AlgoParams) (core.Result, []float64, error) {
	p = p.withDefaults(a)
	switch a {
	case BFS, CC, SSSP:
		if opts.MaxIterations == 0 {
			opts.MaxIterations = p.MaxIterations
		}
	}
	switch a {
	case PR:
		res, vals, err := graphzalgo.PageRankLayout(layout, opts, p.Iterations, p.Damping)
		return res, f32to64(vals), err
	case BFS:
		res, vals, err := graphzalgo.BFSLayout(layout, opts, p.Source)
		return res, u32to64(vals), err
	case CC:
		res, vals, err := graphzalgo.ConnectedComponentsLayout(layout, opts)
		return res, u32to64(vals), err
	case SSSP:
		res, vals, err := graphzalgo.SSSPLayout(layout, opts, p.Source)
		return res, f32to64(vals), err
	case BP:
		res, vals, err := graphzalgo.BeliefPropagationLayout(layout, opts, p.Iterations)
		return res, f32to64(vals), err
	case RW:
		res, vals, err := graphzalgo.RandomWalkLayout(layout, opts, p.Iterations, uint32(p.Walkers))
		return res, u32to64(vals), err
	}
	return core.Result{}, nil, fmt.Errorf("bench: unknown algorithm %q", a)
}

func f32to64(in []float32) []float64 {
	if in == nil {
		return nil
	}
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

func u32to64(in []uint32) []float64 {
	if in == nil {
		return nil
	}
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}
