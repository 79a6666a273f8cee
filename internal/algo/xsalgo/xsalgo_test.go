package xsalgo

import (
	"math"
	"testing"

	"graphz/internal/algo/plain"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
	"graphz/internal/xstream"
)

// partition bins edges for X-Stream on a fresh null device.
func partition(t *testing.T, edges []graph.Edge, k int) *xstream.Partitioned {
	t.Helper()
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	pt, err := xstream.Partition(xstream.PartitionConfig{Dev: dev, NumPartitions: k}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func opts() xstream.Options { return xstream.Options{MemoryBudget: 64 << 20} }

// TestPageRankExactSync: the BSP engine's PageRank is exactly synchronous
// power iteration, so it must match the plain reference per-iteration
// (up to float32 rounding), not just at the fixpoint.
func TestPageRankExactSync(t *testing.T) {
	edges := gen.RMAT(8, 2000, gen.NaturalRMAT, 121)
	n := int(graph.MaxID(edges)) + 1
	for _, iters := range []int{1, 3, 10} {
		want := plain.PageRank(plain.BuildAdjacency(n, edges), iters, 0.85)
		pt := partition(t, edges, 3)
		_, ranks, err := PageRank(pt, opts(), iters, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if math.Abs(float64(ranks[v])-want[v]) > 1e-3*(1+want[v]) {
				t.Fatalf("iters=%d: rank[%d] = %v, want %v", iters, v, ranks[v], want[v])
			}
		}
	}
}

func TestBFSMatchesPlainAndCountsLevels(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 122)
	n := int(graph.MaxID(edges)) + 1
	src := graph.VertexID(0)
	want := plain.BFS(plain.BuildAdjacency(n, edges), src)
	pt := partition(t, edges, 3)
	res, levels, err := BFS(pt, opts(), src)
	if err != nil {
		t.Fatal(err)
	}
	maxLevel := uint32(0)
	for v := range want {
		if levels[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, levels[v], want[v])
		}
		if levels[v] != Unreached && levels[v] > maxLevel {
			maxLevel = levels[v]
		}
	}
	// BSP discovers exactly one frontier per iteration: iterations must
	// be at least the BFS depth.
	if res.Iterations < int(maxLevel) {
		t.Errorf("iterations %d < BFS depth %d under BSP", res.Iterations, maxLevel)
	}
}

func TestCCMatchesPlain(t *testing.T) {
	base := gen.RMAT(7, 600, gen.NaturalRMAT, 123)
	var edges []graph.Edge
	for _, e := range base {
		edges = append(edges, e, graph.Edge{Src: e.Dst, Dst: e.Src})
	}
	n := int(graph.MaxID(edges)) + 1
	want := plain.ConnectedComponents(plain.BuildAdjacency(n, edges))
	pt := partition(t, edges, 2)
	_, labels, err := ConnectedComponents(pt, opts())
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, labels[v], want[v])
		}
	}
}

func TestSSSPMatchesPlain(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 124)
	n := int(graph.MaxID(edges)) + 1
	src := graph.VertexID(2)
	want := plain.SSSP(plain.BuildAdjacency(n, edges), src)
	pt := partition(t, edges, 3)
	_, dists, err := SSSP(pt, opts(), src)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		wv, gv := float64(want[v]), float64(dists[v])
		if math.IsInf(wv, 1) != math.IsInf(gv, 1) || (!math.IsInf(wv, 1) && math.Abs(gv-wv) > 1e-4) {
			t.Fatalf("dist[%d] = %v, want %v", v, gv, wv)
		}
	}
}

// TestBPMatchesPlainExactly: both are synchronous schedules over the
// same MRF, so marginals agree to float32 rounding.
func TestBPMatchesPlainExactly(t *testing.T) {
	edges := gen.RMAT(7, 700, gen.NaturalRMAT, 125)
	n := int(graph.MaxID(edges)) + 1
	want := plain.BeliefPropagation(plain.BuildAdjacency(n, edges), 6)
	pt := partition(t, edges, 2)
	_, marg, err := BeliefPropagation(pt, opts(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if math.Abs(float64(marg[v]-want[v])) > 1e-3 {
			t.Fatalf("marginal[%d] = %v, want %v", v, marg[v], want[v])
		}
	}
}

// TestRWConservationExact: BSP conserves walkers every iteration.
func TestRWConservationExact(t *testing.T) {
	edges := gen.RMAT(7, 700, gen.NaturalRMAT, 126)
	pt := partition(t, edges, 2)
	const perVertex = 3
	final, err := finalWalkers(pt, opts(), 6, perVertex)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint32
	for _, w := range final {
		sum += w
	}
	if want := uint32(pt.NumVertices) * perVertex; sum != want {
		t.Fatalf("walkers = %d, want %d", sum, want)
	}
	// And visits equal walkers * iterations exactly (synchronous hops).
	_, visits, err := RandomWalk(pt, opts(), 6, perVertex)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range visits {
		total += int64(v)
	}
	if want := int64(pt.NumVertices) * perVertex * 6; total != want {
		t.Errorf("total visits = %d, want %d", total, want)
	}
}

// finalWalkers runs RandomWalk and returns where the walkers sit after the
// last step.
func finalWalkers(pt *xstream.Partitioned, opts xstream.Options, iterations int, walkersPerVertex uint32) ([]uint32, error) {
	opts.MaxIterations = iterations
	_, vals, err := run[rwVal, uint32](pt, rwProgram{perVertex: walkersPerVertex}, rwValCodec{}, graph.Uint32Codec{}, opts)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, len(vals))
	for i, v := range vals {
		out[i] = v.Walkers
	}
	return out, nil
}

// TestRWMatchesPlainExactly: the plain generator mirrors the BSP
// semantics and hash, so per-vertex visit counts agree exactly.
func TestRWMatchesPlainExactly(t *testing.T) {
	edges := gen.ErdosRenyi(60, 400, 127)
	n := int(graph.MaxID(edges)) + 1
	pt := partition(t, edges, 2)
	_, visits, err := RandomWalk(pt, opts(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := plain.RandomWalk(plain.BuildAdjacency(n, edges), 5, 2)
	for v := 0; v < n; v++ {
		if visits[v] != want[v] {
			t.Fatalf("visits[%d] = %d, want %d", v, visits[v], want[v])
		}
	}
}
