package gen

import (
	"math"
	"slices"
	"testing"

	"graphz/internal/graph"
)

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(10, 1000, NaturalRMAT, 42)
	b := RMAT(10, 1000, NaturalRMAT, 42)
	if len(a) != 1000 || len(b) != 1000 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RMAT not deterministic")
		}
	}
	c := RMAT(10, 1000, NaturalRMAT, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRMATIDRange(t *testing.T) {
	edges := RMAT(8, 5000, NaturalRMAT, 1)
	for _, e := range edges {
		if e.Src >= 256 || e.Dst >= 256 {
			t.Fatalf("edge %v outside 2^8 ID space", e)
		}
	}
}

func TestRMATPowerLaw(t *testing.T) {
	// The skewed quadrant probabilities must concentrate degree mass:
	// the top 1% of vertices should own far more than 1% of edges.
	edges := RMAT(14, 100_000, NaturalRMAT, 7)
	n := 1 << 14
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.Src]++
	}
	// Count edges owned by the 1% highest-degree vertices.
	sorted := append([]int(nil), deg...)
	// Simple selection: find threshold via sort.
	sortInts(sorted)
	top := n / 100
	thresh := sorted[n-top]
	var owned int
	for _, d := range deg {
		if d >= thresh {
			owned += d
		}
	}
	if frac := float64(owned) / float64(len(edges)); frac < 0.20 {
		t.Errorf("top 1%% of vertices own %.1f%% of edges; want >= 20%% for a power law", frac*100)
	}
}

func sortInts(a []int) {
	// Insertion into a counting structure is overkill; use stdlib.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestZipfShape(t *testing.T) {
	edges := Zipf(2000, 20_000, 0.8, 3)
	if len(edges) != 20_000 {
		t.Fatalf("got %d edges, want 20000", len(edges))
	}
	st := Summarize(edges)
	// Few unique degrees relative to vertices is the property DOS
	// exploits; a Zipf graph must exhibit it.
	if st.UniqueDegrees > st.NumVertices/4 {
		t.Errorf("unique degrees %d vs vertices %d: not power-law-like",
			st.UniqueDegrees, st.NumVertices)
	}
	// Claim 1 bound.
	if float64(st.UniqueDegrees) > 3*math.Sqrt(float64(st.NumEdges)) {
		t.Errorf("unique degrees %d exceed 3*sqrt(E) = %.0f",
			st.UniqueDegrees, 3*math.Sqrt(float64(st.NumEdges)))
	}
}

func TestZipfS1(t *testing.T) {
	edges := Zipf(100, 1000, 1.0, 9)
	if len(edges) != 1000 {
		t.Fatalf("got %d edges", len(edges))
	}
}

func TestErdosRenyi(t *testing.T) {
	edges := ErdosRenyi(50, 500, 11)
	if len(edges) != 500 {
		t.Fatalf("got %d edges", len(edges))
	}
	for _, e := range edges {
		if e.Src >= 50 || e.Dst >= 50 {
			t.Fatalf("edge %v out of range", e)
		}
	}
}

func TestGrid(t *testing.T) {
	edges := Grid(3, 4)
	// 3x4 grid: horizontal (3 rows * 3 gaps) + vertical (2 gaps * 4
	// cols) = 9 + 8 = 17 undirected = 34 directed.
	if len(edges) != 34 {
		t.Fatalf("got %d edges, want 34", len(edges))
	}
	// Spot-check adjacency: vertex 0 connects to 1 and 4.
	var to1, to4 bool
	for _, e := range edges {
		if e.Src == 0 && e.Dst == 1 {
			to1 = true
		}
		if e.Src == 0 && e.Dst == 4 {
			to4 = true
		}
	}
	if !to1 || !to4 {
		t.Error("grid adjacency wrong for vertex 0")
	}
}

func TestSummarize(t *testing.T) {
	if st := Summarize(nil); st != (Stats{}) {
		t.Errorf("empty summarize = %+v", st)
	}
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 5, Dst: 0}}
	st := Summarize(edges)
	if st.MaxID != 5 {
		t.Errorf("MaxID = %d", st.MaxID)
	}
	if st.NumEdges != 3 {
		t.Errorf("NumEdges = %d", st.NumEdges)
	}
	// Touched vertices: 0,1,2,5 = 4 (IDs 3,4 are gaps).
	if st.NumVertices != 4 {
		t.Errorf("NumVertices = %d, want 4", st.NumVertices)
	}
	// Degrees over [0,5]: 2,0,0,0,0,1 -> unique {0,1,2} = 3.
	if st.UniqueDegrees != 3 {
		t.Errorf("UniqueDegrees = %d, want 3", st.UniqueDegrees)
	}
	if st.Bytes != 3*graph.EdgeBytes {
		t.Errorf("Bytes = %d", st.Bytes)
	}
}

// TestGenerateMatchesGenerators: the by-name dispatch the command-line
// tools share produces exactly what each generator does, from that
// generator's own fields of the Spec, and rejects a name it does not know.
func TestGenerateMatchesGenerators(t *testing.T) {
	spec := Spec{Scale: 7, Vertices: 90, Edges: 400, Skew: 1.1, Rows: 5, Cols: 8, Seed: 11}
	want := map[string][]graph.Edge{
		"rmat": RMAT(7, 400, NaturalRMAT, 11),
		"zipf": Zipf(90, 400, 1.1, 11),
		"er":   ErdosRenyi(90, 400, 11),
		"grid": Grid(5, 8),
	}
	for kind, edges := range want {
		spec.Kind = kind
		got, err := Generate(spec)
		if err != nil || !slices.Equal(got, edges) {
			t.Errorf("Generate(%s): %d edges, err %v; the generator gives %d", kind, len(got), err, len(edges))
		}
	}
	spec.Kind = "rmatt"
	if _, err := Generate(spec); err == nil {
		t.Error("Generate accepted an unknown generator")
	}
}
