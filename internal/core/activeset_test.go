package core

import (
	"testing"

	"graphz/internal/gen"
	"graphz/internal/graph"
)

// Selective scheduling beside the draws: what a sparse iteration allocates,
// and who may be scheduled selectively. (The planner and the bitmap are
// FuzzEngineSeams's; selective fixpoints are FuzzEngineOracle's.)

// slowChainEdges builds a graph whose min-label run has a long sparse
// tail. Old IDs: source S=0, chain C_1..C_k = 1..k, sink T=k+1. S points
// at C_1 and each C_i at C_{i+1} (C_k at T); dummy edges to T give S
// degree k+2 and C_i degree i+1, so DOS (degree-descending) relabels
// S->0, C_k->1, ..., C_1->k, T->k+1 and every chain edge points one ID
// backward. A backward message never takes effect in the iteration it is
// sent, so the frontier advances exactly one vertex per iteration: ~k
// tail iterations each touching one chain vertex plus the sink.
func slowChainEdges(k int) []graph.Edge {
	sink := graph.VertexID(k + 1)
	var edges []graph.Edge
	edges = append(edges, graph.Edge{Src: 0, Dst: 1})
	for j := 0; j < k+1; j++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: sink})
	}
	for i := 1; i <= k; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
		for j := 0; j < i; j++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: sink})
		}
	}
	return edges
}

// TestSparseIterationAllocs bounds what a sparse iteration allocates on the
// resident source: the planner's marks and runs and the Worker's range
// list are scratch the engine keeps, the resident entries need no stream,
// so one more iteration of a thin frontier costs the Worker pass's Context
// and nothing that grows with the graph. A per-iteration block-mark slice,
// degree array or range list coming back fails it.
func TestSparseIterationAllocs(t *testing.T) {
	const perIteration = 2
	const k = 400
	g := buildDOS(t, slowChainEdges(k)) // one frontier vertex per tail iteration
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, graph.U32PairCodec, graph.Uint32Codec{}, Options{
				MemoryBudget:    64 << 20,
				DynamicMessages: true,
				MaxIterations:   iters,
			})
			must(t, err)
			res, err := eng.Run()
			if err != nil || res.Iterations != iters || res.Partitions != 1 || !res.ResidentAdjacency {
				t.Fatalf("ran %d of %d iterations in %d partitions (cached %v): %v",
					res.Iterations, iters, res.Partitions, res.ResidentAdjacency, err)
			}
			if res.UpdatesRun > 3*int64(g.NumVertices)+4*int64(iters) {
				t.Fatalf("%d updates in %d iterations: the tail is not sparse", res.UpdatesRun, iters)
			}
			eng.Cleanup()
		})
	}
	const short, long = 40, 360
	per := (allocs(long) - allocs(short)) / (long - short)
	t.Logf("a sparse iteration on the resident source allocates %.2f times", per)
	if per > perIteration {
		t.Errorf("a sparse iteration on the resident source allocates %.2f times, want <= %d", per, perIteration)
	}
}

// TestSelectiveNeedsFrontierSafe holds DESIGN.md §9's invariant: a program
// that does not declare FrontierSafe — prProg, re-sending its rank every round
// as PageRank does, or the Section IV-E emulation — is never scheduled.
func TestSelectiveNeedsFrontierSafe(t *testing.T) {
	g := buildDOS(t, gen.RMAT(6, 200, gen.NaturalRMAT, 85))
	opts := Options{MemoryBudget: 64 << 20, DynamicMessages: true, MaxIterations: 3}
	eng, err := New[prVal, float64](DOSLayout(g), prProg{}, prCodec{}, graph.Float64Codec{}, opts)
	must(t, err)
	pr, err := eng.Run()
	must(t, err)
	inDeg, err := InDegrees(DOSLayout(g))
	must(t, err)
	chi, _, err := EmulateGraphChi[uint32, uint32](DOSLayout(g), chiMinProgram{}, graph.Uint32Codec{}, graph.Uint32Codec{}, inDeg, opts)
	if must(t, err); pr.BlocksScanned+pr.BlocksSkipped+chi.BlocksScanned+chi.BlocksSkipped != 0 {
		t.Errorf("undeclared programs were scheduled: prProg %+v, EmulateGraphChi %+v", pr, chi)
	}
}
