package obs

import (
	"reflect"
	"testing"
)

func stageReport(stages ...StageAgg) *RunReport {
	return &RunReport{Schema: ReportSchemaVersion, Stages: stages}
}

func TestDiffStageRegression(t *testing.T) {
	base := stageReport(
		StageAgg{Engine: "graphz", Stage: StageSio, NS: 1_000_000},
		StageAgg{Engine: "graphz", Stage: StageDrain, NS: 2_000_000},
	)
	cur := stageReport(
		StageAgg{Engine: "graphz", Stage: StageSio, NS: 1_050_000},   // +5%: below threshold
		StageAgg{Engine: "graphz", Stage: StageDrain, NS: 9_000_000}, // +350%: regression
	)
	d := DiffReports(base, cur, DiffOptions{})
	if len(d.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(d.Stages))
	}
	// Sorted by delta descending: drain first.
	if d.Stages[0].Stage != StageDrain || !d.Stages[0].Regressed {
		t.Errorf("stage 0 = %+v, want regressed drain", d.Stages[0])
	}
	if d.Stages[1].Stage != StageSio || d.Stages[1].Regressed {
		t.Errorf("stage 1 = %+v, want non-regressed sio", d.Stages[1])
	}
	if d.Regressions != 1 {
		t.Errorf("regressions = %d, want 1", d.Regressions)
	}
}

func TestDiffStageAbsoluteFloor(t *testing.T) {
	// 10x relative growth but only 90µs absolute — under the 250µs floor.
	base := stageReport(StageAgg{Stage: StageWorker, NS: 10_000})
	cur := stageReport(StageAgg{Stage: StageWorker, NS: 100_000})
	if d := DiffReports(base, cur, DiffOptions{}); d.Regressions != 0 {
		t.Errorf("sub-floor growth flagged: %+v", d.Stages)
	}
	// A negative MinNS disables the floor.
	if d := DiffReports(base, cur, DiffOptions{MinNS: -1}); d.Regressions != 1 {
		t.Errorf("floor-disabled growth not flagged")
	}
	// Cost appearing from a zero base is always a regression once over
	// the floor.
	d := DiffReports(stageReport(), stageReport(StageAgg{Stage: StageDecode, NS: 300_000}), DiffOptions{})
	if d.Regressions != 1 || !d.Stages[0].Regressed {
		t.Errorf("new stage cost not flagged: %+v", d.Stages)
	}
}

func TestDiffCounters(t *testing.T) {
	base := &RunReport{Schema: 1, Counters: map[string]int64{
		"graphz_messages_spilled_total": 0,
		"graphz_blocks_skipped_total":   100,
		"graphz_noise_total":            5,
	}}
	cur := &RunReport{Schema: 1, Counters: map[string]int64{
		"graphz_messages_spilled_total": 5000,
		"graphz_blocks_skipped_total":   40, // improvement: listed, not regressed
		"graphz_noise_total":            9,  // |delta| 4 < MinCount 16: dropped
	}}
	d := DiffReports(base, cur, DiffOptions{})
	if len(d.Counters) != 2 {
		t.Fatalf("counters = %+v, want 2 entries", d.Counters)
	}
	if d.Counters[0].Name != "graphz_messages_spilled_total" || !d.Counters[0].Regressed {
		t.Errorf("counter 0 = %+v, want regressed spill", d.Counters[0])
	}
	if d.Counters[1].Name != "graphz_blocks_skipped_total" || d.Counters[1].Regressed {
		t.Errorf("counter 1 = %+v, want non-regressed skip decrease", d.Counters[1])
	}
	if d.Regressions != 1 {
		t.Errorf("regressions = %d, want 1", d.Regressions)
	}
}

func TestDiffBlocksMergesAdjacent(t *testing.T) {
	base := &RunReport{Schema: 1, Blocks: []BlockHeat{
		{File: "graphz.edges", Block: 0, ReadBytes: 10},
		{File: "graphz.edges", Block: 1, ReadBytes: 10},
		{File: "graphz.edges", Block: 2, ReadBytes: 10},
		{File: "graphz.edges", Block: 4, ReadBytes: 10},
	}}
	cur := &RunReport{Schema: 1, Blocks: []BlockHeat{
		{File: "graphz.edges", Block: 0, ReadBytes: 100},
		{File: "graphz.edges", Block: 1, ReadBytes: 100},
		{File: "graphz.edges", Block: 2, ReadBytes: 10}, // unchanged: breaks the run
		{File: "graphz.edges", Block: 4, ReadBytes: 100},
	}}
	d := DiffReports(base, cur, DiffOptions{})
	want := []BlockRangeDelta{
		{File: "graphz.edges", Metric: "read_bytes", FirstBlock: 0, LastBlock: 1, Base: 20, Cur: 200},
		{File: "graphz.edges", Metric: "read_bytes", FirstBlock: 4, LastBlock: 4, Base: 10, Cur: 100},
	}
	if !reflect.DeepEqual(d.Blocks, want) {
		t.Errorf("blocks =\n %+v\nwant\n %+v", d.Blocks, want)
	}
	if d.Regressions != 2 {
		t.Errorf("regressions = %d, want 2", d.Regressions)
	}
}

func TestDiffBlocksNewBlocksAndCap(t *testing.T) {
	// Blocks only in the current run (e.g. spill traffic appearing) have
	// a zero base; every other block drops out quietly.
	base := &RunReport{Schema: 1}
	cur := &RunReport{Schema: 1, Blocks: []BlockHeat{
		{File: "graphz.vstate", Block: 0, DrainMsgs: 500},
		{File: "graphz.vstate", Block: 2, DrainMsgs: 900},
		{File: "graphz.vstate", Block: 4, DrainMsgs: 700},
	}}
	d := DiffReports(base, cur, DiffOptions{TopBlocks: 2})
	if len(d.Blocks) != 2 {
		t.Fatalf("blocks = %+v, want capped at 2", d.Blocks)
	}
	// Largest increases first.
	if d.Blocks[0].FirstBlock != 2 || d.Blocks[1].FirstBlock != 4 {
		t.Errorf("cap kept wrong ranges: %+v", d.Blocks)
	}
	// Base-only blocks never produce a range (they can only improve).
	d = DiffReports(cur, base, DiffOptions{})
	if len(d.Blocks) != 0 {
		t.Errorf("improvement produced ranges: %+v", d.Blocks)
	}
}

func TestDiffNsMetricUsesNsFloor(t *testing.T) {
	base := &RunReport{Schema: 1, Blocks: []BlockHeat{{File: "graphz.edges", Block: 0, DecodeNS: 1000}}}
	cur := &RunReport{Schema: 1, Blocks: []BlockHeat{{File: "graphz.edges", Block: 0, DecodeNS: 200_000}}}
	// +199µs decode: huge relative growth, but under the 250µs MinNS floor
	// (while far over the MinCount floor a count metric would use).
	if d := DiffReports(base, cur, DiffOptions{}); len(d.Blocks) != 0 {
		t.Errorf("sub-floor decode growth flagged: %+v", d.Blocks)
	}
	cur.Blocks[0].DecodeNS = 2_000_000
	d := DiffReports(base, cur, DiffOptions{})
	if len(d.Blocks) != 1 || d.Blocks[0].Metric != "decode_ns" {
		t.Errorf("decode regression missed: %+v", d.Blocks)
	}
}

func TestDiffOptionDefaults(t *testing.T) {
	var o DiffOptions
	if o.threshold() != 0.25 || o.minNS() != 250_000 || o.minCount() != 16 || o.topBlocks() != 16 {
		t.Errorf("defaults = %v %v %v %v", o.threshold(), o.minNS(), o.minCount(), o.topBlocks())
	}
	o = DiffOptions{Threshold: 0.5, MinNS: 1, MinCount: 2, TopBlocks: 3}
	if o.threshold() != 0.5 || o.minNS() != 1 || o.minCount() != 2 || o.topBlocks() != 3 {
		t.Errorf("explicit values not honored")
	}
	o = DiffOptions{MinNS: -1, MinCount: -1}
	if o.minNS() != 0 || o.minCount() != 0 {
		t.Errorf("negative floors must disable")
	}
}
