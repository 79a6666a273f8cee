package integration

import (
	"fmt"
	"math"
	"testing"

	"graphz/internal/algo/plain"
	"graphz/internal/bench"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// TestFrontierSchedulingOracle runs all six algorithms the way graphz-run
// does — bench.ExecAlgo, selective scheduling asked for
// exactly when the algorithm is frontier-safe — on the graph shape that
// separates the safe programs from the others: vertices no edge enters
// (they receive no message, so a selective schedule never runs them again),
// vertices no edge leaves, and an ID no edge names. BFS, CC and SSSP must
// skip blocks and still equal the in-memory reference exactly; PageRank, BP
// and RW must run unscheduled and meet the references integration_test.go
// holds them to — PageRank scheduled selectively on this graph is off by
// whole ranks, not by a tolerance.
func TestFrontierSchedulingOracle(t *testing.T) {
	// An R-MAT core (IDs below 1<<17), 400 sources into it, 400 sinks out
	// of it, and one ID between them that stays isolated. It is this large
	// so that three partitions of 8-byte states need fewer bytes than two
	// once each pays graphz-run's default 64 KiB message buffer.
	edges := gen.RMAT(17, 300_000, gen.NaturalRMAT, 91)
	const core0, isolated, extra = 1 << 17, 1 << 17, 400
	for i := 0; i < extra; i++ {
		src, sink := graph.VertexID(isolated+1+i), graph.VertexID(isolated+1+extra+i)
		edges = append(edges,
			graph.Edge{Src: src, Dst: graph.VertexID(i * 97 % core0)},
			graph.Edge{Src: graph.VertexID(i * 89 % core0), Dst: sink})
	}
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	// 4,096-entry blocks: at one partition a frontier has ~75 blocks to
	// miss, not the five a 64 Ki-entry grid would cut this graph into.
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev, Codec: storage.CodecGroupVarint, BlockEntries: 4096}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	o2n, err := g.OldToNew()
	if err != nil {
		t.Fatal(err)
	}
	if o2n[isolated] != graph.NoVertex {
		t.Fatalf("the isolated ID %d became vertex %d", isolated, o2n[isolated])
	}
	// The references run in the layout's ID space: priors, weights and
	// walker rotation hash the IDs the programs see.
	rel := make([]graph.Edge, len(edges))
	for i, e := range edges {
		rel[i] = graph.Edge{Src: o2n[e.Src], Dst: o2n[e.Dst]}
	}
	n := g.NumVertices
	adj := plain.BuildAdjacency(n, rel)
	inDeg := make([]int, n)
	for _, e := range rel {
		inDeg[e.Dst]++
	}
	var sources, sinks int
	for v := 0; v < n; v++ {
		if inDeg[v] == 0 {
			sources++
		}
		if len(adj.Out[v]) == 0 {
			sinks++
		}
	}
	if sources < extra || sinks < extra {
		t.Fatalf("%d zero-in-degree and %d zero-out-degree vertices, want %d of each", sources, sinks, extra)
	}

	const src = 0 // the highest-degree vertex, graphz-run's default source
	params := map[bench.Algo]bench.AlgoParams{
		bench.BFS: {Source: src}, bench.CC: {}, bench.SSSP: {Source: src},
		bench.PR: {Iterations: 50}, bench.BP: {Iterations: 10}, bench.RW: {Iterations: 6, Walkers: 3},
	}
	exact := func(t *testing.T, got []float64, want func(v int) float64) {
		t.Helper()
		for v := range got {
			if w := want(v); got[v] != w {
				t.Fatalf("vertex %d = %v, want %v", v, got[v], w)
			}
		}
	}
	check := map[bench.Algo]func(t *testing.T, got []float64){
		bench.BFS: func(t *testing.T, got []float64) {
			want := plain.BFS(adj, src)
			exact(t, got, func(v int) float64 { return float64(want[v]) })
		},
		bench.CC: func(t *testing.T, got []float64) {
			want := plain.ConnectedComponents(adj)
			exact(t, got, func(v int) float64 { return float64(want[v]) })
		},
		bench.SSSP: func(t *testing.T, got []float64) {
			want := plain.SSSP(adj, src)
			exact(t, got, func(v int) float64 { return float64(want[v]) })
		},
		bench.PR: func(t *testing.T, got []float64) {
			want := plain.PageRank(adj, 200, 0.85) // the fixpoint, as TestPageRankAgreesAcrossEngines
			for v := range got {
				if math.Abs(got[v]-want[v]) > 2e-3*(1+want[v]) {
					t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
				}
			}
		},
		bench.BP: func(t *testing.T, got []float64) {
			want := plain.BeliefPropagation(adj, params[bench.BP].Iterations)
			for v := range got {
				if math.Abs(got[v]-float64(want[v])) > 0.15 { // TestBPMarginalsCloseAcrossEngines' bound
					t.Fatalf("marginal[%d] = %v, want %v", v, got[v], want[v])
				}
			}
		},
		bench.RW: func(t *testing.T, got []float64) {
			// TestRandomWalkTotalsComparable's bound: a walker is visited
			// once per iteration, twice when an inline hop lands ahead of
			// the Worker.
			var sum float64
			for _, x := range got {
				sum += x
			}
			base := float64(n * params[bench.RW].Walkers * params[bench.RW].Iterations)
			if sum < base || sum > 2*base {
				t.Fatalf("%v visits, want within [%v, %v]", sum, base, 2*base)
			}
		},
	}
	vsize := map[bench.Algo]int64{bench.BFS: 8, bench.CC: 8, bench.SSSP: 8, bench.PR: 8, bench.BP: 16, bench.RW: 12}

	for _, a := range bench.Algos {
		for _, parts := range []int64{1, 3} {
			t.Run(fmt.Sprintf("%s/P=%d", a, parts), func(t *testing.T) {
				// graphz-run's options; the budget is the smallest that plans
				// `parts` partitions around its default 64 KiB message buffers.
				budget := int64(64 << 20)
				if parts > 1 {
					budget = 6*storage.DefaultBlockSize + g.IndexBytes() + g.BlockTableBytes() +
						parts*64<<10 + (int64(n)+parts-1)/parts*vsize[a]
				}
				opts := core.Options{
					MemoryBudget: budget, DynamicMessages: true, MaxIterations: 200,
					SelectiveScheduling: a.FrontierSafe(),
				}
				res, got, err := bench.ExecAlgo(a, core.DOSLayout(g), opts, params[a])
				if err != nil {
					t.Fatal(err)
				}
				if int64(res.Partitions) != parts {
					t.Fatalf("%d partitions, want %d", res.Partitions, parts)
				}
				if a.FrontierSafe() && res.BlocksSkipped == 0 {
					t.Errorf("scheduled selectively, yet skipped none of %d blocks", res.BlocksScanned)
				}
				if !a.FrontierSafe() && res.BlocksScanned+res.BlocksSkipped != 0 {
					t.Errorf("not frontier-safe, yet the planner scanned %d blocks and skipped %d", res.BlocksScanned, res.BlocksSkipped)
				}
				check[a](t, got)
			})
		}
	}
}
