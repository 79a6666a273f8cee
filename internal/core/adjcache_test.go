package core

import (
	"fmt"
	"slices"
	"testing"

	"graphz/internal/gen"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// TestResidencyBoundary pins the adjacency's boundary as TestSemAutoDetection
// pins the states': it is plan()'s inequality and nothing else. At the
// smallest budget that holds the resident floor, P message buffers, the
// largest partition's states and 4 bytes per edge the run is resident; one
// byte below it streams; and the byte moves nothing else — the same
// partitions, the same state in every vertex. The fitting side is also the
// tightest timeline the planner ever promises (checkWithinBudget).
func TestResidencyBoundary(t *testing.T) {
	// Sparse on purpose: at P = 2 the adjacency must fit
	// in less than the second half of the states, or the budget that holds
	// it plans one partition.
	edges := gen.ErdosRenyi(6000, 3000, 105)
	for _, codec := range []storage.Codec{nil, storage.CodecGroupVarint} {
		for _, parts := range []int64{1, 2} {
			for _, dm := range []bool{true, false} {
				layout := "v1"
				if codec != nil {
					layout = codec.Name()
				}
				t.Run(fmt.Sprintf("%s/parts=%d/dm=%v", layout, parts, dm), func(t *testing.T) {
					g := buildDOSCodec(t, edges, codec, 0)
					n := int64(g.NumVertices)
					need := pipelineOverheadBytes + g.IndexBytes() + g.BlockTableBytes() +
						parts*64 + (n+parts-1)/parts*8 + g.NumEdges*4
					run := func(budget int64) (Result, []minVal) {
						reg := obs.NewRegistry()
						res, vals := runMinLabel(t, g, Options{MemoryBudget: budget, DynamicMessages: dm,
							MsgBufferBytes: 64, MaxIterations: 4, Obs: reg})
						checkWithinBudget(t, reg.MemSamples())
						return res, vals
					}
					fit, fitVals := run(need)
					if !fit.ResidentAdjacency || int64(fit.Partitions) != parts {
						t.Errorf("budget == the fit (%d): resident %v in %d partitions, want resident in %d",
							need, fit.ResidentAdjacency, fit.Partitions, parts)
					}
					below, belowVals := run(need - 1)
					if below.ResidentAdjacency || int64(below.Partitions) != parts {
						t.Errorf("budget one below the fit: resident %v in %d partitions, want streamed in %d",
							below.ResidentAdjacency, below.Partitions, parts)
					}
					if !slices.Equal(fitVals, belowVals) {
						t.Fatalf("states %+v resident, %+v streamed", fitVals, belowVals)
					}
				})
			}
		}
	}
}
