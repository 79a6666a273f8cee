package integration

import (
	"testing"

	"graphz/internal/algo/graphzalgo"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// Run-report diffing end to end (ISSUE 6 acceptance): two runs of the
// same graph and algorithm at different memory budgets, and the diff
// must localize the regression — the tight budget forces multiple
// partitions, so messages that were inline start spilling through the
// vertex-state file, and the extra cost shows up as a drain-stage
// regression, a spilled-messages counter regression, and a drain_msgs
// block range on the vstate file.

// runCCReport runs ConnectedComponents on a fresh device at the budget
// budgetFn picks, with full instrumentation, and builds the run report.
func runCCReport(t *testing.T, edges []graph.Edge, budgetFn func(*dos.Graph) int64) (*obs.RunReport, core.Result) {
	t.Helper()
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	must(t, graph.WriteEdges(dev, "raw", edges))
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev}, "raw", "g")
	must(t, err)
	reg := obs.NewRegistry()
	tr := obs.NewCollectingTracer(nil)
	budget := budgetFn(g)
	res, _, err := graphzalgo.ConnectedComponents(g, core.Options{
		MemoryBudget:    budget,
		DynamicMessages: true,
		MsgBufferBytes:  64,
		Obs:             reg,
		Trace:           tr,
	})
	must(t, err)
	rep := obs.BuildReport(obs.ReportInfo{
		Engine: "graphz", Algo: "cc", BudgetBytes: budget,
	}, reg, tr, core.DeviceFileIO(dev))
	return rep, res
}

func TestReportDiffLocalizesBudgetRegression(t *testing.T) {
	edges := symmetrize(gen.RMAT(8, 1500, gen.NaturalRMAT, 77))

	// Base: a budget everything fits in — one partition, all messages
	// inline, nothing spilled.
	base, resBase := runCCReport(t, edges, func(*dos.Graph) int64 { return 64 << 20 })
	if resBase.Partitions != 1 || resBase.MessagesSpilled != 0 || resBase.MessagesBuffered != 0 {
		t.Fatalf("base run not all-inline: partitions=%d buffered=%d spilled=%d",
			resBase.Partitions, resBase.MessagesBuffered, resBase.MessagesSpilled)
	}

	// Current: a budget sized for roughly four partitions (mirroring the
	// core planner's accounting), with tiny message buffers so
	// cross-partition messages spill.
	cur, resCur := runCCReport(t, edges, func(g *dos.Graph) int64 {
		const pipelineOverhead = 6 * storage.DefaultBlockSize // core's fixed Sio buffers
		vertexBytes := int64(g.NumVertices) * 8               // ccVal is a U32Pair
		return pipelineOverhead + g.IndexBytes() + g.BlockTableBytes() + vertexBytes/4 + 4*64
	})
	if resCur.Partitions < 2 || resCur.MessagesSpilled < 16 {
		t.Fatalf("tight run not spilling: partitions=%d spilled=%d",
			resCur.Partitions, resCur.MessagesSpilled)
	}

	// MinNS -1: the drain cost appears from a zero base, and on the null
	// device its absolute size is machine-dependent — the localization,
	// not the magnitude, is under test. Count floors stay at defaults.
	d := obs.DiffReports(base, cur, obs.DiffOptions{MinNS: -1})
	if d.Regressions == 0 {
		t.Fatal("diff found no regressions")
	}

	var drainRegressed bool
	for _, s := range d.Stages {
		if s.Stage == obs.StageDrain {
			drainRegressed = s.Regressed
		}
	}
	if !drainRegressed {
		t.Errorf("drain stage not flagged: %+v", d.Stages)
	}

	var spillRegressed bool
	for _, c := range d.Counters {
		if c.Name == "graphz_messages_spilled_total" {
			spillRegressed = c.Regressed
			if c.Base != 0 || c.Cur != resCur.MessagesSpilled {
				t.Errorf("spill counter delta = %+v, want 0 -> %d", c, resCur.MessagesSpilled)
			}
		}
	}
	if !spillRegressed {
		t.Errorf("spilled counter not flagged: %+v", d.Counters)
	}

	// The new drain traffic is attributed to the vstate file, starting at
	// its first block (vertex states begin at offset zero).
	var drainRange *obs.BlockRangeDelta
	for i, b := range d.Blocks {
		if b.File == "graphz.vstate" && b.Metric == "drain_msgs" {
			drainRange = &d.Blocks[i]
		}
	}
	if drainRange == nil {
		t.Fatalf("no vstate drain_msgs range: %+v", d.Blocks)
	}
	if drainRange.FirstBlock != 0 || drainRange.Base != 0 || drainRange.Cur != resCur.MessagesBuffered {
		t.Errorf("drain range = %+v, want blocks from 0 covering all %d buffered messages",
			drainRange, resCur.MessagesBuffered)
	}
}
