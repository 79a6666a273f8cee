package core

import (
	"sort"

	"graphz/internal/csr"
	"graphz/internal/dos"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// Layout abstracts where a graph's adjacency lives and how its vertex
// index is represented. The engine runs over either degree-ordered
// storage (the paper's design) or CSR (the no-DOS ablation and the
// GraphChi-style index model), so Figure 7's breakdown is a one-line
// configuration change.
type Layout interface {
	// NumVertices returns the dense vertex count of the layout's ID
	// space.
	NumVertices() int
	// NumEdges returns the number of adjacency entries.
	NumEdges() int64
	// IndexBytes returns the memory the resident vertex index
	// occupies; the engine charges it against its budget.
	IndexBytes() int64
	// LoadIndex makes the index resident, charging its IO to the
	// device. It must be called once before DegreeOf/OffsetOf.
	LoadIndex() error
	// DegreeOf returns the out-degree of x (index must be resident,
	// x in range).
	DegreeOf(x graph.VertexID) uint32
	// DegreeRun returns x's out-degree and the end of the range
	// [x, end) of vertices that share it: the rest of x's bucket under
	// DOS, x+1 under CSR. It is the degree-ordered walk: a loop over
	// ascending IDs asks again only once it reaches end.
	DegreeRun(x graph.VertexID) (deg uint32, end graph.VertexID)
	// OffsetOf returns the edge-entry offset of x's adjacency.
	OffsetOf(x graph.VertexID) int64
	// NextZeroDegree returns the smallest y in [x, hi) with no
	// out-edges, or hi when every vertex of the range has some. The
	// selective planner breaks its runs there; a degree-ordered layout
	// answers from its bucket table.
	NextZeroDegree(x, hi graph.VertexID) graph.VertexID
	// EdgesFile names the packed adjacency file on the device.
	EdgesFile() string
	// Device returns the device everything lives on.
	Device() *storage.Device
	// NewToOld maps layout IDs back to input IDs; nil means identity.
	NewToOld() ([]graph.VertexID, error)
	// Adj describes how the edges file maps entry offsets to bytes: a
	// fixed-entry layout (4 bytes per entry) or DOS v2's block-encoded
	// form with a per-block offset table and codec.
	Adj() storage.BlockLayout
}

// dosLayout adapts dos.Graph. Degree lookups use a cursor over the bucket
// table: the engine walks vertices in ascending order, so the cursor
// almost always hits, and the occasional random lookup falls back to
// binary search.
type dosLayout struct {
	g      *dos.Graph
	cursor int
}

// DOSLayout wraps a degree-ordered graph for the engine.
func DOSLayout(g *dos.Graph) Layout { return &dosLayout{g: g} }

func (l *dosLayout) NumVertices() int { return l.g.NumVertices }

func (l *dosLayout) NumEdges() int64 { return l.g.NumEdges }

func (l *dosLayout) IndexBytes() int64 { return l.g.IndexBytes() }

func (l *dosLayout) LoadIndex() error {
	// The bucket table arrived with the meta file at load/convert
	// time; there is nothing else to read — that is the point of DOS.
	return nil
}

// bucketOf locates x's bucket, preferring the sequential cursor.
func (l *dosLayout) bucketOf(x graph.VertexID) int {
	b := l.g.Buckets
	if l.cursor < len(b) && b[l.cursor].FirstID <= x &&
		(l.cursor+1 == len(b) || x < b[l.cursor+1].FirstID) {
		return l.cursor
	}
	i := sort.Search(len(b), func(i int) bool { return b[i].FirstID > x }) - 1
	l.cursor = i
	return i
}

func (l *dosLayout) DegreeOf(x graph.VertexID) uint32 {
	return l.g.Buckets[l.bucketOf(x)].Degree
}

func (l *dosLayout) DegreeRun(x graph.VertexID) (uint32, graph.VertexID) {
	b, i := l.g.Buckets, l.bucketOf(x)
	if i+1 < len(b) {
		return b[i].Degree, b[i+1].FirstID
	}
	return b[i].Degree, graph.VertexID(l.g.NumVertices)
}

func (l *dosLayout) OffsetOf(x graph.VertexID) int64 {
	bk := l.g.Buckets[l.bucketOf(x)]
	return bk.FirstOff + int64(x-bk.FirstID)*int64(bk.Degree)
}

// NextZeroDegree: degrees descend, so the zero-degree vertices are the
// last bucket or nobody.
func (l *dosLayout) NextZeroDegree(x, hi graph.VertexID) graph.VertexID {
	if b := l.g.Buckets; len(b) > 0 && b[len(b)-1].Degree == 0 {
		return min(max(x, b[len(b)-1].FirstID), hi)
	}
	return hi
}

func (l *dosLayout) EdgesFile() string { return l.g.EdgesFile() }

func (l *dosLayout) Device() *storage.Device { return l.g.Device() }

func (l *dosLayout) NewToOld() ([]graph.VertexID, error) { return l.g.NewToOld() }

func (l *dosLayout) Adj() storage.BlockLayout { return l.g.BlockLayout() }

// csrLayout adapts csr.Graph: the ablation case with a full per-vertex
// index that must be loaded from disk and held resident.
type csrLayout struct {
	g *csr.Graph
}

// CSRLayout wraps a CSR graph for the engine (the "GraphZ without DOS"
// configuration of the paper's Figure 7).
func CSRLayout(g *csr.Graph) Layout { return &csrLayout{g: g} }

func (l *csrLayout) NumVertices() int { return l.g.NumVertices }

func (l *csrLayout) NumEdges() int64 { return l.g.NumEdges }

func (l *csrLayout) IndexBytes() int64 { return l.g.IndexBytes() }

func (l *csrLayout) LoadIndex() error { return l.g.LoadIndex() }

func (l *csrLayout) DegreeOf(x graph.VertexID) uint32 { return l.g.DegreeOf(x) }

func (l *csrLayout) DegreeRun(x graph.VertexID) (uint32, graph.VertexID) {
	return l.g.DegreeOf(x), x + 1
}

func (l *csrLayout) OffsetOf(x graph.VertexID) int64 { return l.g.OffsetOf(x) }

func (l *csrLayout) NextZeroDegree(x, hi graph.VertexID) graph.VertexID {
	for ; x < hi; x++ {
		if l.g.DegreeOf(x) == 0 {
			return x
		}
	}
	return hi
}

func (l *csrLayout) EdgesFile() string { return l.g.EdgesFile() }

func (l *csrLayout) Device() *storage.Device { return l.g.Device() }

func (l *csrLayout) NewToOld() ([]graph.VertexID, error) { return nil, nil }

func (l *csrLayout) Adj() storage.BlockLayout { return storage.RawBlockLayout(l.g.NumEdges) }

// endOffset returns the edge-entry offset one past vertex hi-1, i.e. the
// end of the adjacency range for vertices [lo, hi).
func endOffset(l Layout, hi graph.VertexID) int64 {
	if int(hi) >= l.NumVertices() {
		return l.NumEdges()
	}
	return l.OffsetOf(hi)
}
