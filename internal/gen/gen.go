// Package gen produces deterministic synthetic graphs standing in for the
// paper's input datasets (LiveJournal, Friendster, YahooWeb, the Sim
// synthetic graph, and the SNAP graphs of Table VIII), which cannot be
// shipped with this repository. R-MAT and Zipf generators reproduce the
// properties the paper's results depend on — power-law degree
// distributions with few unique degrees and sparse, gappy ID spaces —
// while grid and Erdős–Rényi generators provide the contrasting regular
// workloads used by the examples (see DESIGN.md, substitutions).
package gen

import (
	"fmt"
	"math"

	"graphz/internal/graph"
)

// rng is a splitmix64 generator: tiny, fast, and deterministic across
// platforms, so every experiment is reproducible from its seed.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// RMATParams shapes an R-MAT recursive-matrix graph. The standard
// a/b/c/d quadrant probabilities must sum to 1; a >> d yields the skewed
// power-law structure of natural graphs.
type RMATParams struct {
	A, B, C float64 // D = 1 - A - B - C
}

// NaturalRMAT is the usual "natural graph" parameterization (Graph500
// uses 0.57/0.19/0.19/0.05).
var NaturalRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19}

// RMAT generates numEdges edges over an ID space of 2^scale vertices.
// Duplicate edges and self-loops may occur, as in real crawls. The
// result's ID space is sparse: many IDs in [0, 2^scale) have no edges,
// reproducing the paper's observation that the maximum ID exceeds the
// vertex count in real datasets.
func RMAT(scale int, numEdges int, p RMATParams, seed uint64) []graph.Edge {
	if scale < 1 || scale > 31 {
		panic(fmt.Sprintf("gen: RMAT scale %d out of range [1,31]", scale))
	}
	r := newRNG(seed)
	edges := make([]graph.Edge, numEdges)
	ab := p.A + p.B
	abc := ab + p.C
	for i := range edges {
		var src, dst uint32
		for level := 0; level < scale; level++ {
			x := r.float64()
			src <<= 1
			dst <<= 1
			switch {
			case x < p.A:
				// top-left: no bits set
			case x < ab:
				dst |= 1
			case x < abc:
				src |= 1
			default:
				src |= 1
				dst |= 1
			}
		}
		edges[i] = graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)}
	}
	return edges
}

// Zipf generates a graph whose out-degrees follow a Zipf(s) distribution:
// vertex ranks are assigned degrees proportional to 1/rank^s and
// destinations are chosen by preferential attachment to low ranks. This
// mirrors the degree histograms of the SNAP graphs in the paper's Table
// VIII more directly than R-MAT does.
func Zipf(numVertices, numEdges int, s float64, seed uint64) []graph.Edge {
	if numVertices < 2 {
		panic("gen: Zipf needs at least 2 vertices")
	}
	r := newRNG(seed)
	// Degree weights by rank.
	weights := make([]float64, numVertices)
	var total float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		total += weights[i]
	}
	// Integer degrees summing to ~numEdges.
	edges := make([]graph.Edge, 0, numEdges)
	// Ranks are shuffled onto IDs so the graph is not pre-sorted by
	// degree (the DOS conversion must do real work).
	perm := permutation(numVertices, r)
	for rank := 0; rank < numVertices && len(edges) < numEdges; rank++ {
		d := int(math.Round(weights[rank] / total * float64(numEdges)))
		src := perm[rank]
		for k := 0; k < d && len(edges) < numEdges; k++ {
			dst := perm[zipfPick(r, numVertices, s)]
			edges = append(edges, graph.Edge{Src: src, Dst: dst})
		}
	}
	// Round-off shortfall: top up from random high-rank sources.
	for len(edges) < numEdges {
		src := perm[zipfPick(r, numVertices, s)]
		dst := perm[zipfPick(r, numVertices, s)]
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
	}
	return edges
}

// zipfPick samples a rank in [0, n) with probability ~ 1/(rank+1)^s using
// rejection sampling (good enough for generation workloads).
func zipfPick(r *rng, n int, s float64) int {
	if math.Abs(1-s) < 1e-9 {
		// s = 1: the continuous inverse CDF is n^u.
		for {
			rank := int(math.Pow(float64(n), r.float64())) - 1
			if rank >= 0 && rank < n {
				return rank
			}
		}
	}
	for {
		// Inverse-CDF approximation for Zipf via continuous Pareto.
		u := r.float64()
		x := math.Pow(float64(n), 1-s)*u + (1 - u)
		rank := int(math.Pow(x, 1/(1-s))) - 1
		if rank >= 0 && rank < n {
			return rank
		}
	}
}

// permutation returns a pseudo-random permutation of [0, n) as VertexIDs.
func permutation(n int, r *rng) []graph.VertexID {
	p := make([]graph.VertexID, n)
	for i := range p {
		p[i] = graph.VertexID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ErdosRenyi generates numEdges uniformly random edges over numVertices
// vertices: the regular, non-power-law contrast case.
func ErdosRenyi(numVertices, numEdges int, seed uint64) []graph.Edge {
	r := newRNG(seed)
	edges := make([]graph.Edge, numEdges)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VertexID(r.intn(numVertices)),
			Dst: graph.VertexID(r.intn(numVertices)),
		}
	}
	return edges
}

// Grid generates a rows x cols 4-neighbor grid with edges in both
// directions — a road-network-like workload for SSSP examples. Vertex
// (r, c) has ID r*cols+c.
func Grid(rows, cols int) []graph.Edge {
	id := func(r, c int) graph.VertexID { return graph.VertexID(r*cols + c) }
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{Src: id(r, c), Dst: id(r, c+1)})
				edges = append(edges, graph.Edge{Src: id(r, c+1), Dst: id(r, c)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{Src: id(r, c), Dst: id(r+1, c)})
				edges = append(edges, graph.Edge{Src: id(r+1, c), Dst: id(r, c)})
			}
		}
	}
	return edges
}

// Spec names one of the four generators and carries the parameters the
// command-line tools expose; each generator reads only its own.
type Spec struct {
	Kind       string  // rmat, zipf, er or grid
	Scale      int     // rmat: log2 of the vertex ID space
	Vertices   int     // zipf, er: vertex count
	Edges      int     // rmat, zipf, er: edge count
	Skew       float64 // zipf: skew exponent
	Rows, Cols int     // grid
	Seed       uint64  // rmat, zipf, er
}

// Generate runs the generator s.Kind names (R-MAT with the NaturalRMAT
// parameters).
func Generate(s Spec) ([]graph.Edge, error) {
	switch s.Kind {
	case "rmat":
		return RMAT(s.Scale, s.Edges, NaturalRMAT, s.Seed), nil
	case "zipf":
		return Zipf(s.Vertices, s.Edges, s.Skew, s.Seed), nil
	case "er":
		return ErdosRenyi(s.Vertices, s.Edges, s.Seed), nil
	case "grid":
		return Grid(s.Rows, s.Cols), nil
	}
	return nil, fmt.Errorf("gen: unknown generator %q (want rmat, zipf, er, or grid)", s.Kind)
}

// Stats summarizes a generated edge list the way the paper's Table X
// reports graph properties.
type Stats struct {
	MaxID         graph.VertexID
	NumVertices   int // vertices with at least one incident edge
	NumEdges      int
	UniqueDegrees int // distinct out-degrees over [0, MaxID]
	Bytes         int64
}

// Summarize computes Stats for edges.
func Summarize(edges []graph.Edge) Stats {
	if len(edges) == 0 {
		return Stats{}
	}
	maxID := graph.MaxID(edges)
	n := int(maxID) + 1
	deg := make([]uint32, n)
	touched := make([]bool, n)
	for _, e := range edges {
		deg[e.Src]++
		touched[e.Src] = true
		touched[e.Dst] = true
	}
	seen := make(map[uint32]struct{})
	var vertices int
	for i, d := range deg {
		seen[d] = struct{}{}
		if touched[i] {
			vertices++
		}
	}
	return Stats{
		MaxID:         maxID,
		NumVertices:   vertices,
		NumEdges:      len(edges),
		UniqueDegrees: len(seen),
		Bytes:         int64(len(edges)) * graph.EdgeBytes,
	}
}
