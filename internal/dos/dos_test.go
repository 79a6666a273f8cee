package dos

import (
	"sort"
	"testing"
	"testing/quick"

	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// convertEdges is a test helper: writes edges to a device and converts.
func convertEdges(t *testing.T, dev *storage.Device, edges []graph.Edge, prefix string) *Graph {
	t.Helper()
	if err := graph.WriteEdges(dev, prefix+".raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := Convert(ConvertConfig{Dev: dev}, prefix+".raw", prefix)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// paperEdges is a worked example in the style of the paper's Section III-B
// (Fig. 1, Tables III-VII): sparse old IDs with a gap-filled range, a
// zero-out-degree vertex, and degree ties. All expected values below are
// hand-computed.
//
//	old 5  -> 2, 9, 12   (degree 3)
//	old 2  -> 5, 9       (degree 2)
//	old 9  -> 5          (degree 1)
//	old 14 -> 9          (degree 1)
//	old 12 ->            (degree 0; appears only as a destination)
var paperEdges = []graph.Edge{
	{Src: 5, Dst: 2}, {Src: 5, Dst: 9}, {Src: 5, Dst: 12},
	{Src: 2, Dst: 5}, {Src: 2, Dst: 9},
	{Src: 9, Dst: 5},
	{Src: 14, Dst: 9},
}

func TestPaperExampleRelabeling(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, paperEdges, "g")

	if g.NumVertices != 5 {
		t.Errorf("NumVertices = %d, want 5", g.NumVertices)
	}
	if g.NumEdges != 7 {
		t.Errorf("NumEdges = %d, want 7", g.NumEdges)
	}
	if g.MaxOldID != 14 {
		t.Errorf("MaxOldID = %d, want 14", g.MaxOldID)
	}

	// Relabeling: sort by (degree desc, old asc):
	// new 0 = old 5 (deg 3), new 1 = old 2 (deg 2),
	// new 2 = old 9 (deg 1), new 3 = old 14 (deg 1),
	// new 4 = old 12 (deg 0).
	n2o, err := g.NewToOld()
	if err != nil {
		t.Fatal(err)
	}
	wantN2O := []graph.VertexID{5, 2, 9, 14, 12}
	for i, w := range wantN2O {
		if n2o[i] != w {
			t.Errorf("new2old[%d] = %d, want %d", i, n2o[i], w)
		}
	}

	o2n, err := g.OldToNew()
	if err != nil {
		t.Fatal(err)
	}
	if len(o2n) != 15 {
		t.Fatalf("old2new length = %d, want 15 (maxOld+1)", len(o2n))
	}
	wantO2N := map[graph.VertexID]graph.VertexID{5: 0, 2: 1, 9: 2, 14: 3, 12: 4}
	for old := graph.VertexID(0); old < 15; old++ {
		want, isVertex := wantO2N[old]
		if isVertex {
			if o2n[old] != want {
				t.Errorf("old2new[%d] = %d, want %d", old, o2n[old], want)
			}
		} else if o2n[old] != graph.NoVertex {
			t.Errorf("old2new[%d] = %d, want NoVertex (gap)", old, o2n[old])
		}
	}
}

func TestPaperExampleTables(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, paperEdges, "g")

	// The ids_table / id_offset_table of the example (paper Tables VI
	// and VII): degree -> first new ID and first edge offset.
	want := []Bucket{
		{Degree: 3, FirstID: 0, FirstOff: 0},
		{Degree: 2, FirstID: 1, FirstOff: 3},
		{Degree: 1, FirstID: 2, FirstOff: 5},
		{Degree: 0, FirstID: 4, FirstOff: 7},
	}
	if len(g.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", g.Buckets, want)
	}
	for i := range want {
		if g.Buckets[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, g.Buckets[i], want[i])
		}
	}

	// The edge list stored on external storage (paper Table V), in new
	// IDs. Within a vertex, destinations appear in ascending old-ID
	// order (an artifact of the stable final sort; any order is
	// legal).
	wantAdj := map[graph.VertexID][]graph.VertexID{
		0: {1, 2, 4}, // old 5 -> old {2,9,12} -> new {1,2,4}
		1: {0, 2},    // old 2 -> old {5,9} -> new {0,2}
		2: {0},       // old 9 -> old 5 -> new 0
		3: {2},       // old 14 -> old 9 -> new 2
		4: {},        // old 12, zero degree
	}
	for v, want := range wantAdj {
		got, err := g.Adjacency(v, nil)
		if err != nil {
			t.Fatalf("Adjacency(%d): %v", v, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Adjacency(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Adjacency(%d) = %v, want %v", v, got, want)
			}
		}
	}
}

func TestPaperExampleOffsetArithmetic(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, paperEdges, "g")

	// The paper's Section III-B walk-through: find vertex 3 by binary
	// search (degree 1, first ID 2, first offset 5):
	// offset = 5 + (3-2)*1 = 6.
	off, err := g.EdgeOffset(3)
	if err != nil {
		t.Fatal(err)
	}
	if off != 6 {
		t.Errorf("EdgeOffset(3) = %d, want 6", off)
	}
	deg, err := g.Degree(3)
	if err != nil {
		t.Fatal(err)
	}
	if deg != 1 {
		t.Errorf("Degree(3) = %d, want 1", deg)
	}

	// Out-of-range vertex.
	if _, err := g.EdgeOffset(5); err == nil {
		t.Error("EdgeOffset(5) should fail: only 5 vertices")
	}
	if _, err := g.Degree(99); err == nil {
		t.Error("Degree(99) should fail")
	}
}

func TestIndexBytes(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, paperEdges, "g")
	if g.IndexBytes() != 4*BucketBytes {
		t.Errorf("IndexBytes = %d, want %d", g.IndexBytes(), 4*BucketBytes)
	}
	if g.UniqueDegrees() != 4 {
		t.Errorf("UniqueDegrees = %d, want 4", g.UniqueDegrees())
	}
}

func TestLoadRoundTrip(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, paperEdges, "g")
	g2, err := Load(dev, "g")
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices != g.NumVertices || g2.NumEdges != g.NumEdges || g2.MaxOldID != g.MaxOldID {
		t.Errorf("loaded %+v, want %+v", g2, g)
	}
	if len(g2.Buckets) != len(g.Buckets) {
		t.Fatalf("bucket count mismatch")
	}
	for i := range g.Buckets {
		if g2.Buckets[i] != g.Buckets[i] {
			t.Errorf("bucket %d: %+v vs %+v", i, g2.Buckets[i], g.Buckets[i])
		}
	}
}

func TestLoadErrors(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if _, err := Load(dev, "missing"); err == nil {
		t.Error("loading missing graph should fail")
	}
	storage.WriteAll(dev, "bad.meta", []byte("not a meta file at all..."))
	if _, err := Load(dev, "bad"); err == nil {
		t.Error("loading corrupt meta should fail")
	}
}

func TestConvertEmptyGraph(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, nil, "g")
	if g.NumVertices != 0 || g.NumEdges != 0 {
		t.Errorf("empty graph: V=%d E=%d", g.NumVertices, g.NumEdges)
	}
}

func TestConvertSelfLoopsAndDuplicates(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	edges := []graph.Edge{
		{Src: 1, Dst: 1}, {Src: 1, Dst: 1}, {Src: 1, Dst: 0}, {Src: 0, Dst: 1},
	}
	g := convertEdges(t, dev, edges, "g")
	if g.NumVertices != 2 || g.NumEdges != 4 {
		t.Fatalf("V=%d E=%d, want 2, 4", g.NumVertices, g.NumEdges)
	}
	// old 1 has degree 3 -> new 0; old 0 has degree 1 -> new 1.
	adj, err := g.Adjacency(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// old 1's dsts {1,1,0} -> sorted by old dst: {0,1,1} -> new {1,0,0}.
	want := []graph.VertexID{1, 0, 0}
	if len(adj) != 3 {
		t.Fatalf("adj = %v", adj)
	}
	for i := range want {
		if adj[i] != want[i] {
			t.Errorf("adj = %v, want %v", adj, want)
		}
	}
}

// referenceRelabel computes the degree ordering in memory: vertices (IDs
// appearing as src or dst) sorted by (out-degree desc, old ID asc).
func referenceRelabel(edges []graph.Edge) (n2o []graph.VertexID, deg map[graph.VertexID]uint32) {
	deg = make(map[graph.VertexID]uint32)
	seen := make(map[graph.VertexID]bool)
	for _, e := range edges {
		deg[e.Src]++
		seen[e.Src] = true
		seen[e.Dst] = true
	}
	for v := range seen {
		n2o = append(n2o, v)
	}
	sort.Slice(n2o, func(i, j int) bool {
		di, dj := deg[n2o[i]], deg[n2o[j]]
		if di != dj {
			return di > dj
		}
		return n2o[i] < n2o[j]
	})
	return n2o, deg
}

// TestConvertMatchesReference cross-checks the full out-of-core pipeline
// against the in-memory reference on random power-law graphs.
func TestConvertMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		edges := gen.RMAT(9, 3000, gen.NaturalRMAT, seed)
		dev := storage.NewDevice(storage.NullDevice, storage.Options{})
		g := convertEdges(t, dev, edges, "g")

		wantN2O, deg := referenceRelabel(edges)
		if g.NumVertices != len(wantN2O) {
			t.Fatalf("seed %d: V=%d, want %d", seed, g.NumVertices, len(wantN2O))
		}
		n2o, err := g.NewToOld()
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantN2O {
			if n2o[i] != wantN2O[i] {
				t.Fatalf("seed %d: new2old[%d] = %d, want %d", seed, i, n2o[i], wantN2O[i])
			}
		}

		// Degrees and adjacency contents per vertex.
		o2n, err := g.OldToNew()
		if err != nil {
			t.Fatal(err)
		}
		wantAdj := make(map[graph.VertexID][]graph.VertexID)
		for _, e := range edges {
			ns, nd := o2n[e.Src], o2n[e.Dst]
			wantAdj[ns] = append(wantAdj[ns], nd)
		}
		var buf []graph.VertexID
		for newID := graph.VertexID(0); int(newID) < g.NumVertices; newID++ {
			d, err := g.Degree(newID)
			if err != nil {
				t.Fatal(err)
			}
			if want := deg[n2o[newID]]; d != want {
				t.Fatalf("seed %d: Degree(%d) = %d, want %d", seed, newID, d, want)
			}
			buf, err = g.Adjacency(newID, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			want := append([]graph.VertexID(nil), wantAdj[newID]...)
			got := append([]graph.VertexID(nil), buf...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				t.Fatalf("seed %d: vertex %d adjacency size %d, want %d", seed, newID, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: vertex %d adjacency mismatch", seed, newID)
				}
			}
		}
	}
}

// TestOffsetFormulaProperty: for every vertex, EdgeOffset(x+1) ==
// EdgeOffset(x) + Degree(x) — the invariant that makes the computed index
// equivalent to a stored CSR index.
func TestOffsetFormulaProperty(t *testing.T) {
	edges := gen.Zipf(300, 4000, 0.9, 5)
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, edges, "g")
	var acc int64
	for v := graph.VertexID(0); int(v) < g.NumVertices; v++ {
		off, err := g.EdgeOffset(v)
		if err != nil {
			t.Fatal(err)
		}
		if off != acc {
			t.Fatalf("EdgeOffset(%d) = %d, want %d", v, off, acc)
		}
		d, err := g.Degree(v)
		if err != nil {
			t.Fatal(err)
		}
		acc += int64(d)
	}
	if acc != g.NumEdges {
		t.Errorf("degrees sum to %d, want %d", acc, g.NumEdges)
	}
}

// TestDegreesMonotone: new IDs are ordered by non-increasing degree.
func TestDegreesMonotone(t *testing.T) {
	edges := gen.RMAT(8, 2000, gen.NaturalRMAT, 9)
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, edges, "g")
	prev := uint32(1 << 31)
	for v := graph.VertexID(0); int(v) < g.NumVertices; v++ {
		d, err := g.Degree(v)
		if err != nil {
			t.Fatal(err)
		}
		if d > prev {
			t.Fatalf("Degree(%d) = %d > Degree(%d) = %d", v, d, v-1, prev)
		}
		prev = d
	}
}

// TestRelabelBijectionProperty: old2new and new2old are mutually inverse
// bijections, for arbitrary random graphs.
func TestRelabelBijectionProperty(t *testing.T) {
	check := func(seed uint64, scaleSeed uint8) bool {
		n := 200 + int(seed%300)
		m := 100 + int(scaleSeed)*10
		edges := gen.ErdosRenyi(n, m, seed)
		dev := storage.NewDevice(storage.NullDevice, storage.Options{})
		if err := graph.WriteEdges(dev, "raw", edges); err != nil {
			return false
		}
		g, err := Convert(ConvertConfig{Dev: dev}, "raw", "g")
		if err != nil {
			return false
		}
		n2o, err := g.NewToOld()
		if err != nil || len(n2o) != g.NumVertices {
			return false
		}
		o2n, err := g.OldToNew()
		if err != nil {
			return false
		}
		for newID, old := range n2o {
			if o2n[old] != graph.VertexID(newID) {
				return false
			}
		}
		count := 0
		for _, nw := range o2n {
			if nw != graph.NoVertex {
				count++
			}
		}
		return count == g.NumVertices
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestConvertTinyBudget forces external sorting into many runs.
func TestConvertTinyBudget(t *testing.T) {
	edges := gen.RMAT(8, 5000, gen.NaturalRMAT, 3)
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := Convert(ConvertConfig{Dev: dev, MemoryBudget: 1}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges != 5000 {
		t.Errorf("NumEdges = %d", g.NumEdges)
	}
	// No temp files left behind.
	for _, name := range dev.List() {
		switch name {
		case "raw", "g.edges", "g.meta", "g.new2old", "g.old2new":
		default:
			t.Errorf("leftover file %q", name)
		}
	}
}

// TestClaim1OnConvertedGraphs: unique degrees (buckets) obey the paper's
// bound on converted graphs.
func TestClaim1OnConvertedGraphs(t *testing.T) {
	edges := gen.RMAT(12, 30000, gen.NaturalRMAT, 17)
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, edges, "g")
	bound := 3.0 * sqrtFloat(float64(g.NumEdges))
	if float64(g.UniqueDegrees()) > bound {
		t.Errorf("unique degrees %d exceed 3*sqrt(E) = %.0f", g.UniqueDegrees(), bound)
	}
}

func sqrtFloat(x float64) float64 {
	// Newton iterations avoid importing math for one call.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}
