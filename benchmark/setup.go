package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"graphz/internal/algo/plain"
	"graphz/internal/bench"
	"graphz/internal/dos"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

const (
	rawFile   = "raw" // the edge list on the device
	dosPrefix = "g"   // the converted graph's file prefix
	prDamping = 0.85
)

// prepared is one converted graph, ready to run, with what the oracle
// needs: the ID maps and the input relabelled into the graph's own
// (degree-ordered) ID space.
type prepared struct {
	dev    *storage.Device
	g      *dos.Graph
	n2o    []graph.VertexID
	o2n    []graph.VertexID
	relAdj *plain.Adjacency // input edges mapped through o2n
	edges  int64

	storedBytes int64 // converted-graph files left on the device
	convertIO   storage.Stats
	convertS    float64
	verifyS     float64
	loadS       float64
	writeEdgesS float64
	buildAdjS   float64
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// convert takes a fresh device from raw edge file to a loaded, verified
// graph: the part of set-up every workload shares. The returned duration
// covers Convert + Verify + Load only; writing the edge list is the load
// generator's work.
func convert(sp *spec, edges []graph.Edge, tr *tracer, parent, op int) (*prepared, time.Duration, error) {
	p := &prepared{dev: storage.NewDevice(storage.SSD, storage.Options{}), edges: int64(len(edges))}

	id := tr.start("graph.write_edges", parent, op)
	t0 := time.Now()
	err := graph.WriteEdges(p.dev, rawFile, edges)
	p.writeEdgesS = seconds(time.Since(t0))
	tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("writing edge list: %w", err)
	}

	cfg := dos.ConvertConfig{Dev: p.dev, MemoryBudget: sp.budget}
	if sp.codec != "" {
		if cfg.Codec, err = storage.CodecByName(sp.codec); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	before := p.dev.Stats()
	id = tr.start("dos.convert", parent, op)
	g, err := dos.Convert(cfg, rawFile, dosPrefix)
	tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("dos.Convert: %w", err)
	}
	p.convertS = seconds(time.Since(start))
	p.convertIO = p.dev.Stats().Sub(before)

	t0 = time.Now()
	id = tr.start("dos.verify", parent, op)
	err = dos.Verify(g)
	tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("dos.Verify: %w", err)
	}
	p.verifyS = seconds(time.Since(t0))

	t0 = time.Now()
	id = tr.start("dos.load", parent, op)
	p.g, err = dos.Load(p.dev, dosPrefix)
	tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("dos.Load: %w", err)
	}
	p.loadS = seconds(time.Since(t0))
	elapsed := time.Since(start)

	for _, name := range p.dev.List() {
		if strings.HasPrefix(name, dosPrefix+".") {
			sz, err := p.dev.Size(name)
			if err != nil {
				return nil, 0, err
			}
			p.storedBytes += sz
		}
	}
	return p, elapsed, nil
}

// loadOracle reads the ID maps and relabels the input into the graph's
// ID space. A converted adjacency that is not the relabelled input shows
// up as a value mismatch in every op.
func (p *prepared) loadOracle(edges []graph.Edge, tr *tracer, parent, op int) error {
	var err error
	if p.n2o, err = p.g.NewToOld(); err != nil {
		return fmt.Errorf("NewToOld: %w", err)
	}
	if p.o2n, err = p.g.OldToNew(); err != nil {
		return fmt.Errorf("OldToNew: %w", err)
	}
	id := tr.start("plain.build_adj", parent, op)
	t0 := time.Now()
	p.relAdj = compactAdjacency(p.g.NumVertices, edges, p.o2n)
	p.buildAdjS = seconds(time.Since(t0))
	tr.end(id)
	return nil
}

// compactAdjacency is plain.BuildAdjacency over the relabelled edges with
// every out-list carved from one backing array, in source order, each
// list in input order. plain.BuildAdjacency appends edge by edge and
// leaves the lists scattered over the heap; the yardstick's run time then
// depends on where they landed (0.064 to 0.099 s for the same algorithm on
// same-sized R-MAT graphs, repeatable per seed), which a reference must
// not.
func compactAdjacency(n int, edges []graph.Edge, o2n []graph.VertexID) *plain.Adjacency {
	start := make([]int, n+1)
	for _, e := range edges {
		start[o2n[e.Src]+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	backing := make([]graph.VertexID, len(edges))
	fill := append([]int(nil), start[:n]...)
	for _, e := range edges {
		src := o2n[e.Src]
		backing[fill[src]] = o2n[e.Dst]
		fill[src]++
	}
	out := make([][]graph.VertexID, n)
	for v := range out {
		if start[v] < start[v+1] {
			out[v] = backing[start[v]:start[v+1]:start[v+1]]
		}
	}
	return &plain.Adjacency{N: n, Out: out}
}

// inOrderPageRank is the reference for the engine's PageRank: the
// program of graphzalgo/pagerank.go executed in memory, vertices in
// ascending ID order, every vote applied at once. The engine defers a
// vote to a non-resident partition until that partition loads, which is
// before the destination's next update, so any partitioning gives this
// result up to float32 summation order. plain.PageRank cannot referee a
// fixed-iteration run: it is synchronous, and after 5 to 10 iterations
// the two differ by 7 % (stream-pr) to 90 % (er-spill-pr) on single
// vertices. It stays the speed yardstick.
func inOrderPageRank(a *plain.Adjacency, iterations int, damping float64) []float64 {
	rank := make([]float64, a.N)
	votes := make([]float64, a.N)
	for i := range rank {
		rank[i] = 1
	}
	for it := 0; it < iterations; it++ {
		for u, out := range a.Out {
			if it > 0 {
				rank[u] = (1 - damping) + damping*votes[u]
				votes[u] = 0
			}
			if len(out) == 0 {
				continue
			}
			share := rank[u] / float64(len(out))
			for _, v := range out {
				votes[v] += share
			}
		}
	}
	return rank
}

// reference computes the expected values of one algorithm in the graph's
// ID space. BFS levels and SSSP distances come from internal/algo/plain;
// SSSP weights hash the engine's own IDs, hence the relabelled input.
func (p *prepared) reference(a bench.Algo, source graph.VertexID, iters int) []float64 {
	switch a {
	case bench.PR:
		return inOrderPageRank(p.relAdj, iters, prDamping)
	case bench.BFS:
		lv := plain.BFS(p.relAdj, source)
		out := make([]float64, len(lv))
		for i, v := range lv {
			out[i] = float64(v)
		}
		return out
	case bench.SSSP:
		d := plain.SSSP(p.relAdj, source)
		out := make([]float64, len(d))
		for i, v := range d {
			out[i] = float64(v)
		}
		return out
	}
	panic(fmt.Sprintf("no reference for %s", a))
}

// agrees is the oracle's tolerance: exact for BFS levels (unreached
// included), distances within 1e-3 with matching reachability, ranks
// within 2e-3*(1+x) as integration_test.go compares them.
func agrees(a bench.Algo, got, want float64) bool {
	switch a {
	case bench.BFS:
		return got == want
	case bench.SSSP:
		if math.IsInf(want, 1) || math.IsInf(got, 1) {
			return math.IsInf(want, 1) && math.IsInf(got, 1)
		}
		return math.Abs(got-want) <= 1e-3
	default:
		return math.Abs(got-want) <= 2e-3*(1+want)
	}
}

// compare checks a whole value vector (graph ID space) and names the
// first differing vertex.
func (p *prepared) compare(a bench.Algo, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", a, len(got), len(want))
	}
	for v := range want {
		if !agrees(a, got[v], want[v]) {
			return fmt.Errorf("%s: vertex %d (input ID %d) = %v, want %v", a, v, p.n2o[v], got[v], want[v])
		}
	}
	return nil
}
