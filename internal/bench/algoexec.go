package bench

import (
	"fmt"
	"strings"

	"graphz/internal/algo/chialgo"
	"graphz/internal/algo/graphzalgo"
	"graphz/internal/algo/xsalgo"
	"graphz/internal/core"
	"graphz/internal/graph"
	"graphz/internal/graphchi"
	"graphz/internal/xstream"
)

// One dispatch per engine from an algorithm name to a run. ExecAlgo is
// used by the benchmark harness, the graphz-serve job runner and
// graphz-run: all three hand an (algo, layout, options) triple here, so a
// served job executes exactly the code path the CLI and the evaluation
// tables measure. ExecGraphChi and ExecXStream do the same for the two
// baselines, shared by the harness and graphz-run.

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

// iterationCap returns the engine's MaxIterations for a run of a: the
// caller's when set, else p.MaxIterations for the algorithms that run
// until no vertex changes.
func (p AlgoParams) iterationCap(a Algo, set int) int {
	if set == 0 && (a == BFS || a == CC || a == SSSP) {
		return p.MaxIterations
	}
	return set
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
	opts.MaxIterations = p.iterationCap(a, opts.MaxIterations)
	switch a {
	case PR:
		res, vals, err := graphzalgo.PageRankLayout(layout, opts, p.Iterations, p.Damping)
		return res, widen(vals), err
	case BFS:
		res, vals, err := graphzalgo.BFSLayout(layout, opts, p.Source)
		return res, widen(vals), err
	case CC:
		res, vals, err := graphzalgo.ConnectedComponentsLayout(layout, opts)
		return res, widen(vals), err
	case SSSP:
		res, vals, err := graphzalgo.SSSPLayout(layout, opts, p.Source)
		return res, widen(vals), err
	case BP:
		res, vals, err := graphzalgo.BeliefPropagationLayout(layout, opts, p.Iterations)
		return res, widen(vals), err
	case RW:
		res, vals, err := graphzalgo.RandomWalkLayout(layout, opts, p.Iterations, uint32(p.Walkers))
		return res, widen(vals), err
	}
	return core.Result{}, nil, fmt.Errorf("bench: unknown algorithm %q", a)
}

// ExecGraphChi runs algorithm a on the PSW baseline over sh, with
// ExecAlgo's parameter defaults and value widening. Source and the values
// are in original vertex IDs: GraphChi does not relabel.
func ExecGraphChi(a Algo, sh *graphchi.Shards, opts graphchi.Options, p AlgoParams) (graphchi.Result, []float64, error) {
	p = p.withDefaults(a)
	opts.MaxIterations = p.iterationCap(a, opts.MaxIterations)
	switch a {
	case PR:
		res, vals, err := chialgo.PageRank(sh, opts, p.Iterations, p.Damping)
		return res, widen(vals), err
	case BFS:
		res, vals, err := chialgo.BFS(sh, opts, p.Source)
		return res, widen(vals), err
	case CC:
		res, vals, err := chialgo.ConnectedComponents(sh, opts)
		return res, widen(vals), err
	case SSSP:
		res, vals, err := chialgo.SSSP(sh, opts, p.Source)
		return res, widen(vals), err
	case BP:
		res, vals, err := chialgo.BeliefPropagation(sh, opts, p.Iterations)
		return res, widen(vals), err
	case RW:
		res, vals, err := chialgo.RandomWalk(sh, opts, p.Iterations, uint32(p.Walkers))
		return res, widen(vals), err
	}
	return graphchi.Result{}, nil, fmt.Errorf("bench: unknown algorithm %q", a)
}

// ExecXStream is ExecGraphChi for the edge-centric baseline.
func ExecXStream(a Algo, pt *xstream.Partitioned, opts xstream.Options, p AlgoParams) (xstream.Result, []float64, error) {
	p = p.withDefaults(a)
	opts.MaxIterations = p.iterationCap(a, opts.MaxIterations)
	switch a {
	case PR:
		res, vals, err := xsalgo.PageRank(pt, opts, p.Iterations, p.Damping)
		return res, widen(vals), err
	case BFS:
		res, vals, err := xsalgo.BFS(pt, opts, p.Source)
		return res, widen(vals), err
	case CC:
		res, vals, err := xsalgo.ConnectedComponents(pt, opts)
		return res, widen(vals), err
	case SSSP:
		res, vals, err := xsalgo.SSSP(pt, opts, p.Source)
		return res, widen(vals), err
	case BP:
		res, vals, err := xsalgo.BeliefPropagation(pt, opts, p.Iterations)
		return res, widen(vals), err
	case RW:
		res, vals, err := xsalgo.RandomWalk(pt, opts, p.Iterations, uint32(p.Walkers))
		return res, widen(vals), err
	}
	return xstream.Result{}, nil, fmt.Errorf("bench: unknown algorithm %q", a)
}

// widen converts an algorithm's values to float64; nil (a failed run)
// stays nil.
func widen[T float32 | uint32](in []T) []float64 {
	if in == nil {
		return nil
	}
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}
