package main

import (
	"fmt"
	"math/rand"

	"graphz/internal/algo/plain"
	"graphz/internal/bench"
	"graphz/internal/core"
	"graphz/internal/gen"
	"graphz/internal/graph"
)

// spec fixes everything about a workload but the seed. Each workload
// exists because it loads layers the others leave idle; shape states the
// property that makes it that workload, so an engine change cannot turn
// it into a different one unnoticed.
type spec struct {
	name string
	why  string

	gen    func(seed uint64) []graph.Edge
	codec  string // DOS v2 block codec; "" converts to v1 raw
	budget int64  // engine (and Convert) memory budget

	algo      bench.Algo
	iters     int  // PageRank iterations
	selective bool // Options.SelectiveScheduling
	// sourceOld is the BFS root in the input's ID space.
	sourceOld graph.VertexID

	// shape returns why res is not this workload's shape, or "".
	shape func(res core.Result) string

	serve *serveSpec // non-nil for the served mix
}

// serveSpec sizes the closed-loop served mix. One segment is one pass
// over a fixed multiset of jobs in a seeded order, so every segment does
// the same work and only its interleaving varies.
type serveSpec struct {
	serverBudget int64
	jobBudget    int64
	clients      int
	bfsSources   int // BFS jobs per segment, one per seeded source
	prJobs       int // PageRank jobs per segment, spec.iters iterations each
	ssspJobs     int
}

func (s *serveSpec) segmentJobs() int { return s.bfsSources + s.prJobs + s.ssspJobs }

// shuffled returns edges in a seeded order: the seed's only effect on a
// graph whose structure is fixed (the grid).
func shuffled(edges []graph.Edge, seed uint64) []graph.Edge {
	r := rand.New(rand.NewSource(int64(seed)))
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// hubReaches appends an edge from the hub (the vertex of highest
// out-degree, lowest ID on ties — graph ID 0 after conversion, where the
// server roots SSSP by default) to every vertex the hub does not reach.
// All SSSP distances are then finite: the server cannot encode +Inf in a
// JSON result, and the mix must hold no job that fails.
func hubReaches(edges []graph.Edge, idSpace int) []graph.Edge {
	adj := plain.BuildAdjacency(idSpace, edges)
	present := make([]bool, idSpace)
	hub := 0
	for _, e := range edges {
		present[e.Src], present[e.Dst] = true, true
	}
	for v, out := range adj.Out {
		if len(out) > len(adj.Out[hub]) {
			hub = v
		}
	}
	for v, level := range plain.BFS(adj, graph.VertexID(hub)) {
		if present[v] && level == plain.UnreachedLevel {
			edges = append(edges, graph.Edge{Src: graph.VertexID(hub), Dst: graph.VertexID(v)})
		}
	}
	return edges
}

func semShape(res core.Result) string {
	if !res.SemiExternal || res.MessagesBuffered != 0 {
		return fmt.Sprintf("want the SEM path with no buffered message, got sem=%v buffered=%d", res.SemiExternal, res.MessagesBuffered)
	}
	return ""
}

func spillShape(minParts int, minSpillRatio float64) func(core.Result) string {
	return func(res core.Result) string {
		r := ratio(float64(res.MessagesSpilled), float64(res.MessagesSent))
		if res.Partitions < minParts || r < minSpillRatio {
			return fmt.Sprintf("want >= %d partitions and spilled/sent >= %.2f, got %d partitions and %.3f", minParts, minSpillRatio, res.Partitions, r)
		}
		return ""
	}
}

func frontierShape(minIters int, minSkip float64) func(core.Result) string {
	return func(res core.Result) string {
		r := ratio(float64(res.BlocksSkipped), float64(res.BlocksSkipped+res.BlocksScanned))
		if res.Iterations < minIters || r < minSkip {
			return fmt.Sprintf("want >= %d iterations and block skip ratio >= %.2f, got %d and %.3f", minIters, minSkip, res.Iterations, r)
		}
		return ""
	}
}

// specs returns the four workloads at the named scale: "full" is what
// BENCHMARK.json records, "tiny" (<= 50 k edges) is for bench_test.go.
func specs(scale string) ([]*spec, error) {
	type size struct {
		rmatScale, rmatEdges   int
		erVerts, erEdges       int
		erBudget               int64
		erParts                int
		erSpill                float64
		grid, gridIters        int
		gridSkip               float64
		serveScale, serveEdges int
	}
	var z size
	switch scale {
	case "full":
		z = size{rmatScale: 19, rmatEdges: 4_000_000, erVerts: 1 << 20, erEdges: 4_000_000, erBudget: 4 << 20,
			erParts: 4, erSpill: 0.6, grid: 384, gridIters: 200, gridSkip: 0.3, serveScale: 17, serveEdges: 1_200_000}
	case "tiny":
		// The planner charges 64 KiB of message buffer per partition, so
		// ~400 KiB of vertex states split two ways at most: the ER budget
		// is the pipeline's fixed 1.5 MiB plus 360 KiB. A tiny grid is a
		// single adjacency block: nothing to skip.
		z = size{rmatScale: 12, rmatEdges: 40_000, erVerts: 1 << 16, erEdges: 48_000, erBudget: (1536 + 360) << 10,
			erParts: 2, erSpill: 0.2, grid: 96, gridIters: 60, serveScale: 11, serveEdges: 20_000}
	default:
		return nil, fmt.Errorf("unknown -scale %q (want full or tiny)", scale)
	}
	centre := graph.VertexID(z.grid/2*z.grid + z.grid/2)
	return []*spec{
		{
			name:   "stream-pr",
			why:    "R-MAT, groupvarint, vertex states fit the budget: SEM applies every message inline, so Sio, decode, dispatch and Worker do all the work and the buffer/spill/drain path none",
			gen:    func(seed uint64) []graph.Edge { return gen.RMAT(z.rmatScale, z.rmatEdges, gen.NaturalRMAT, seed) },
			codec:  "groupvarint",
			budget: 16 << 20,
			algo:   bench.PR, iters: 10,
			shape: semShape,
		},
		{
			name:   "er-spill-pr",
			why:    "Erdos-Renyi, v1 raw, budget forces partitions: uniform destinations defeat DOS locality, so most messages are buffered, spilled and drained, and the codec is bypassed",
			gen:    func(seed uint64) []graph.Edge { return gen.ErdosRenyi(z.erVerts, z.erEdges, seed) },
			budget: z.erBudget,
			algo:   bench.PR, iters: 5,
			shape: spillShape(z.erParts, z.erSpill),
		},
		{
			name:   "grid-frontier-bfs",
			why:    "4-neighbour grid, BFS from the centre, selective scheduling: hundreds of iterations over a thin frontier, so block skipping and per-iteration overhead set the time, not bandwidth",
			gen:    func(seed uint64) []graph.Edge { return shuffled(gen.Grid(z.grid, z.grid), seed) },
			budget: 16 << 20,
			algo:   bench.BFS, selective: true, sourceOld: centre,
			shape: frontierShape(z.gridIters, z.gridSkip),
		},
		{
			name: "serve-mix",
			why:  "R-MAT behind the HTTP server, 2 closed-loop clients, BFS/PageRank/SSSP on a warm shared adjacency: short jobs, so engine set-up, observability, admission and HTTP/JSON weigh most",
			gen: func(seed uint64) []graph.Edge {
				return hubReaches(gen.RMAT(z.serveScale, z.serveEdges, gen.NaturalRMAT, seed), 1<<z.serveScale)
			},
			codec:  "groupvarint",
			budget: 8 << 20,
			algo:   bench.PR, iters: 3,
			serve: &serveSpec{serverBudget: 64 << 20, jobBudget: 8 << 20, clients: 2,
				bfsSources: 8, prJobs: 16, ssspJobs: 8},
		},
	}, nil
}
