// Package integration cross-checks the three engines (GraphZ, the
// GraphChi-class baseline, and the X-Stream-class baseline) against the
// plain in-memory references on shared inputs — the correctness foundation
// under every performance comparison the benchmark harness reports. GraphZ
// is held to them by FuzzEngineOracle at every configuration it draws; the
// baselines by the tests below.
package integration

import (
	"math"
	"testing"

	"graphz/internal/algo/chialgo"
	"graphz/internal/algo/graphzalgo"
	"graphz/internal/algo/plain"
	"graphz/internal/algo/xsalgo"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/graphchi"
	"graphz/internal/storage"
	"graphz/internal/xstream"
)

// world holds one graph prepared for all three engines on separate
// devices, with the ID mappings needed to compare results.
type world struct {
	edges []graph.Edge
	gz    *dos.Graph
	chi   *graphchi.Shards
	xs    *xstream.Partitioned
	n2o   []graph.VertexID // GraphZ new -> original
	adj   *plain.Adjacency // natural-ID adjacency for references
	n     int              // natural dense vertex count (maxID+1)
}

func buildWorld(t *testing.T, edges []graph.Edge, evalSize int) *world {
	t.Helper()
	w := &world{edges: edges}
	// Each engine preprocesses its own device's copy of the edges.
	dev := func() *storage.Device {
		d := storage.NewDevice(storage.NullDevice, storage.Options{})
		must(t, graph.WriteEdges(d, "raw", edges))
		return d
	}
	var err error
	w.gz, err = dos.Convert(dos.ConvertConfig{Dev: dev()}, "raw", "g")
	must(t, err)
	w.n2o, err = w.gz.NewToOld()
	must(t, err)
	w.chi, err = graphchi.Shard(graphchi.ShardConfig{Dev: dev(), EdgeValSize: evalSize, NumShards: 3}, "raw", "g")
	must(t, err)
	w.xs, err = xstream.Partition(xstream.PartitionConfig{Dev: dev(), NumPartitions: 3}, "raw", "g")
	must(t, err)
	w.n = int(graph.MaxID(edges)) + 1
	w.adj = plain.BuildAdjacency(w.n, edges)
	return w
}

func gzOpts() core.Options {
	return core.Options{MemoryBudget: 64 << 20, DynamicMessages: true}
}

func chiOpts() graphchi.Options { return graphchi.Options{MemoryBudget: 64 << 20} }

func xsOpts() xstream.Options { return xstream.Options{MemoryBudget: 64 << 20} }

func symmetrize(edges []graph.Edge) []graph.Edge {
	out := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, graph.Edge{Src: e.Dst, Dst: e.Src})
	}
	return out
}

func TestBFSAgreesAcrossEngines(t *testing.T) {
	edges := gen.RMAT(9, 3500, gen.NaturalRMAT, 61)
	w := buildWorld(t, edges, 4)

	// Source: the highest-degree vertex, named by its original ID.
	srcOld := w.n2o[0]
	want := plain.BFS(w.adj, srcOld)

	_, chiLevels, err := chialgo.BFS(w.chi, chiOpts(), srcOld)
	must(t, err)
	_, xsLevels, err := xsalgo.BFS(w.xs, xsOpts(), srcOld)
	must(t, err)

	for old := 0; old < w.n; old++ {
		if chiLevels[old] != want[old] {
			t.Fatalf("GraphChi level[%d] = %d, want %d", old, chiLevels[old], want[old])
		}
		if xsLevels[old] != want[old] {
			t.Fatalf("X-Stream level[%d] = %d, want %d", old, xsLevels[old], want[old])
		}
	}
}

func TestCCAgreesAcrossEngines(t *testing.T) {
	edges := symmetrize(gen.RMAT(8, 1200, gen.NaturalRMAT, 62))
	w := buildWorld(t, edges, 4)

	want := plain.ConnectedComponents(w.adj)

	_, chiLabels, err := chialgo.ConnectedComponents(w.chi, chiOpts())
	must(t, err)
	_, xsLabels, err := xsalgo.ConnectedComponents(w.xs, xsOpts())
	must(t, err)

	// GraphChi and X-Stream share the natural ID space: labels must
	// match the reference exactly.
	for v := 0; v < w.n; v++ {
		if chiLabels[v] != want[v] {
			t.Fatalf("GraphChi label[%d] = %d, want %d", v, chiLabels[v], want[v])
		}
		if xsLabels[v] != want[v] {
			t.Fatalf("X-Stream label[%d] = %d, want %d", v, xsLabels[v], want[v])
		}
	}
}

func TestPageRankAgreesAcrossEngines(t *testing.T) {
	edges := gen.RMAT(9, 3500, gen.NaturalRMAT, 63)
	w := buildWorld(t, edges, 4)

	const iters = 50
	want := plain.PageRank(w.adj, 200, 0.85) // reference fixpoint

	_, chiRanks, err := chialgo.PageRank(w.chi, chiOpts(), iters, 0.85)
	must(t, err)
	_, xsRanks, err := xsalgo.PageRank(w.xs, xsOpts(), iters, 0.85)
	must(t, err)

	tol := func(x float64) float64 { return 2e-3 * (1 + x) }
	for old := 0; old < w.n; old++ {
		if d := math.Abs(float64(chiRanks[old]) - want[old]); d > tol(want[old]) {
			t.Fatalf("GraphChi rank[%d] = %v, want %v", old, chiRanks[old], want[old])
		}
		if d := math.Abs(float64(xsRanks[old]) - want[old]); d > tol(want[old]) {
			t.Fatalf("X-Stream rank[%d] = %v, want %v", old, xsRanks[old], want[old])
		}
	}
}

func TestSSSPAgreesWithReferencePerEngine(t *testing.T) {
	// Weights derive from each engine's own ID space (see DESIGN.md):
	// GraphChi and X-Stream keep the natural IDs.
	edges := gen.RMAT(9, 3000, gen.NaturalRMAT, 64)
	w := buildWorld(t, edges, 4)

	srcOld := w.n2o[0]
	wantNat := plain.SSSP(w.adj, srcOld)

	_, chiDists, err := chialgo.SSSP(w.chi, chiOpts(), srcOld)
	must(t, err)
	_, xsDists, err := xsalgo.SSSP(w.xs, xsOpts(), srcOld)
	must(t, err)
	for v := 0; v < w.n; v++ {
		for name, got := range map[string]float32{"GraphChi": chiDists[v], "X-Stream": xsDists[v]} {
			wv, gv := float64(wantNat[v]), float64(got)
			if math.IsInf(wv, 1) != math.IsInf(gv, 1) || (!math.IsInf(wv, 1) && math.Abs(gv-wv) > 1e-3) {
				t.Fatalf("%s dist[%d] = %v, want %v", name, v, gv, wv)
			}
		}
	}

}

func TestAsyncConvergesNoSlowerThanBSP(t *testing.T) {
	// The paper's Table XIV: asynchronous engines (GraphZ, GraphChi)
	// need no more iterations than bulk-synchronous X-Stream.
	edges := symmetrize(gen.RMAT(9, 2500, gen.NaturalRMAT, 65))
	w := buildWorld(t, edges, 4)

	gzRes, _, err := graphzalgo.ConnectedComponents(w.gz, gzOpts())
	must(t, err)
	chiRes, _, err := chialgo.ConnectedComponents(w.chi, chiOpts())
	must(t, err)
	xsRes, _, err := xsalgo.ConnectedComponents(w.xs, xsOpts())
	must(t, err)
	if gzRes.Iterations > xsRes.Iterations {
		t.Errorf("GraphZ CC took %d iterations, X-Stream %d", gzRes.Iterations, xsRes.Iterations)
	}
	if chiRes.Iterations > xsRes.Iterations {
		t.Errorf("GraphChi CC took %d iterations, X-Stream %d", chiRes.Iterations, xsRes.Iterations)
	}
}

func TestBPMarginalsCloseAcrossEngines(t *testing.T) {
	// BP is approximate and schedule-dependent; after enough rounds on
	// the same MRF the engines' marginals should agree loosely.
	edges := gen.RMAT(8, 1200, gen.NaturalRMAT, 66)
	w := buildWorld(t, edges, 8)

	const iters = 15
	_, chiM, err := chialgo.BeliefPropagation(w.chi, chiOpts(), iters)
	must(t, err)
	_, xsM, err := xsalgo.BeliefPropagation(w.xs, xsOpts(), iters)
	must(t, err)
	var worst float64
	for v := 0; v < w.n; v++ {
		if d := math.Abs(float64(chiM[v] - xsM[v])); d > worst {
			worst = d
		}
	}
	if worst > 0.15 {
		t.Errorf("GraphChi and X-Stream BP marginals differ by up to %v", worst)
	}
}

func TestRandomWalkTotalsComparable(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 67)
	w := buildWorld(t, edges, 4)

	const iters, perVertex = 6, 3
	_, chiVisits, err := chialgo.RandomWalk(w.chi, chiOpts(), iters, perVertex)
	must(t, err)
	_, xsVisits, err := xsalgo.RandomWalk(w.xs, xsOpts(), iters, perVertex)
	must(t, err)
	sum := func(v []uint32) (s int64) {
		for _, x := range v {
			s += int64(x)
		}
		return
	}
	// X-Stream walks are strictly synchronous: every walker makes one
	// hop per iteration — visits are exactly V*perVertex*iters. GraphChi
	// is asynchronous and can double-hop (visiting more), on this graph
	// by less than 2x.
	wantXS := int64(w.xs.NumVertices) * perVertex * iters
	if got := sum(xsVisits); got != wantXS {
		t.Errorf("X-Stream visits = %d, want %d", got, wantXS)
	}
	chiBase := int64(w.xs.NumVertices) * perVertex * iters
	if got := sum(chiVisits); got < chiBase || got > 2*chiBase {
		t.Errorf("GraphChi visits = %d, want within [%d, %d]", got, chiBase, 2*chiBase)
	}
}
