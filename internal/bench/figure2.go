package bench

import (
	"fmt"

	"graphz/internal/dos"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// InPartitionCDF reproduces the paper's Figure 2: for each cutoff
// fraction p of the (degree-ordered) vertex space, the fraction of edges
// whose source AND destination both fall inside the top-p% of vertices —
// the messages that stay in the first partition and never touch the
// disk. Degree ordering packs the power-law head into the prefix, which
// is why the curve rises steeply.
func InPartitionCDF(g *dos.Graph, points int) ([]float64, error) {
	if points < 1 {
		return nil, fmt.Errorf("bench: need at least one CDF point")
	}
	n := g.NumVertices
	if n == 0 {
		return make([]float64, points), nil
	}
	// histogram[k] counts edges whose max(src,dst) lands in the k-th
	// of `points` equal slices of the vertex space.
	histogram := make([]int64, points)
	var total int64

	// Stream the adjacency entries sequentially (decoding blocks on a v2
	// graph), tracking the current source via the bucket table.
	r, err := g.Entries(0, g.NumEdges)
	if err != nil {
		return nil, err
	}
	for b := 0; b < len(g.Buckets); b++ {
		bk := g.Buckets[b]
		end := graph.VertexID(n)
		if b+1 < len(g.Buckets) {
			end = g.Buckets[b+1].FirstID
		}
		for v := bk.FirstID; v < end; v++ {
			for i := uint32(0); i < bk.Degree; i++ {
				dst, err := r.Next()
				if err != nil {
					return nil, fmt.Errorf("bench: streaming edges for CDF: %w", err)
				}
				m := v
				if dst > m {
					m = dst
				}
				slot := int(int64(m) * int64(points) / int64(n))
				if slot >= points {
					slot = points - 1
				}
				histogram[slot]++
				total++
			}
		}
	}
	cdf := make([]float64, points)
	var acc int64
	for k := 0; k < points; k++ {
		acc += histogram[k]
		if total > 0 {
			cdf[k] = float64(acc) / float64(total)
		}
	}
	return cdf, nil
}

// InPartitionCDFFor builds (or reuses) the DOS conversion of a scale and
// computes its CDF.
func InPartitionCDFFor(s Scale, points int) ([]float64, error) {
	prep := Prep(s, FormatDOS, storageKindForAnalysis, 4, false)
	if prep.Err != nil {
		return nil, prep.Err
	}
	g, err := dos.Load(prep.Dev, Prefix)
	if err != nil {
		return nil, err
	}
	prep.Dev.ResetStats()
	return InPartitionCDF(g, points)
}

// storageKindForAnalysis: structural analyses (Figure 2, Table XI) do
// not depend on the cost model, so they reuse the HDD-prepared graphs.
const storageKindForAnalysis = storage.HDD
