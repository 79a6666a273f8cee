package core

import (
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// Run-report reconciliation: the report's span-aggregated stage totals
// must equal the live graphz_stage_*_ns_total counters exactly — both
// sides are fed the same measured durations, so this is equality, not
// approximation (ISSUE 6 acceptance property).

// reconcileStages asserts every span-aggregated stage total matches its
// counter.
func reconcileStages(t *testing.T, rep *obs.RunReport, reg *obs.Registry, stages map[string]string) {
	t.Helper()
	tot := rep.StageTotals()
	for stage, counter := range stages {
		if got, want := tot[stage], reg.CounterValue(counter); got != want {
			t.Errorf("stage %s total = %d ns, counter %s = %d ns", stage, got, counter, want)
		}
	}
}

func TestRunReportReconciliation(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 61)
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewCollectingTracer(nil)
	opts := Options{
		MemoryBudget:    budgetForPartitions(g, 8, 4, 64),
		DynamicMessages: true,
		MsgBufferBytes:  64,
		Obs:             reg,
		Trace:           tr,
		Checkpoint:      CheckpointOptions{Dir: t.TempDir(), Every: 1},
	}
	res, _ := runMinLabel(t, g, opts)
	if res.Partitions < 2 || res.MessagesSpilled == 0 {
		t.Fatalf("want a multi-partition spilling run, got partitions=%d spilled=%d",
			res.Partitions, res.MessagesSpilled)
	}

	rep := obs.BuildReport(obs.ReportInfo{Engine: engineName, Algo: "minlabel"},
		reg, tr, DeviceFileIO(dev))

	reconcileStages(t, rep, reg, map[string]string{
		obs.StageSio:        "graphz_stage_sio_ns_total",
		obs.StageDispatch:   "graphz_stage_dispatch_ns_total",
		obs.StageWorker:     "graphz_stage_worker_ns_total",
		obs.StageDrain:      "graphz_stage_drain_ns_total",
		obs.StageCheckpoint: "graphz_checkpoint_ns_total",
	})

	// One memory sample per iteration, with the planner's fixed classes.
	if len(rep.Memory) != res.Iterations {
		t.Fatalf("memory samples = %d, want %d", len(rep.Memory), res.Iterations)
	}
	for i, m := range rep.Memory {
		if m.Iteration != i {
			t.Errorf("memory sample %d has Iteration %d", i, m.Iteration)
		}
		if m.BudgetBytes != opts.MemoryBudget {
			t.Errorf("sample %d budget = %d, want %d", i, m.BudgetBytes, opts.MemoryBudget)
		}
		if m.IndexBytes != g.IndexBytes() {
			t.Errorf("sample %d index = %d, want %d", i, m.IndexBytes, g.IndexBytes())
		}
		if m.VertexStateBytes <= 0 || m.PipelineBytes != pipelineOverheadBytes {
			t.Errorf("sample %d = %+v", i, m)
		}
	}

	// Block heat: every prefetcher byte is attributed, so the edges-file
	// read bytes sum to one full adjacency scan per iteration; drain
	// fan-in covers every buffered message exactly once.
	edgesFile := DOSLayout(g).EdgesFile()
	var readBytes, drainMsgs int64
	for _, c := range rep.Blocks {
		switch c.File {
		case edgesFile:
			readBytes += c.ReadBytes
		case "graphz.vstate":
			drainMsgs += c.DrainMsgs
		}
	}
	if want := int64(res.Iterations) * g.NumEdges * 4; readBytes != want {
		t.Errorf("heat read bytes = %d, want %d (%d iterations of %d entries)",
			readBytes, want, res.Iterations, g.NumEdges)
	}
	if drainMsgs != res.MessagesBuffered {
		t.Errorf("heat drain msgs = %d, want %d buffered", drainMsgs, res.MessagesBuffered)
	}

	// Per-file device IO: the edges file's physical reads match the heat
	// attribution (no cache, no codec: bytes read == bytes attributed).
	if got := rep.Files[edgesFile].ReadBytes; got != readBytes {
		t.Errorf("file IO read bytes = %d, heat says %d", got, readBytes)
	}

	// One row per iteration; the rows sum to the final message counters.
	if len(rep.Iterations) != res.Iterations {
		t.Fatalf("iteration rows = %d, want %d", len(rep.Iterations), res.Iterations)
	}
	var inline int64
	for _, row := range rep.Iterations {
		inline += row.MessagesInline
	}
	if got := rep.Counters["graphz_messages_inline_total"]; got != res.MessagesInline || inline != got {
		t.Errorf("report inline counter = %d, rows sum to %d, result says %d", got, inline, res.MessagesInline)
	}
}

func TestRunReportCodecDecodeReconciliation(t *testing.T) {
	edges := gen.RMAT(8, 2000, gen.NaturalRMAT, 63)
	g := buildDOSCodec(t, edges, storage.CodecGroupVarint, 0)
	reg := obs.NewRegistry()
	tr := obs.NewCollectingTracer(nil)
	res, _ := runMinLabel(t, g, Options{
		MemoryBudget:    budgetForPartitions(g, 8, 4, 64),
		DynamicMessages: true,
		MsgBufferBytes:  64,
		Obs:             reg,
		Trace:           tr,
	})
	if res.CodecBytesEncoded == 0 {
		t.Fatal("want a codec run")
	}
	rep := obs.BuildReport(obs.ReportInfo{Engine: engineName}, reg, tr, nil)
	reconcileStages(t, rep, reg, map[string]string{
		obs.StageDecode: "graphz_codec_decode_ns_total",
		obs.StageSio:    "graphz_stage_sio_ns_total",
		obs.StageDrain:  "graphz_stage_drain_ns_total",
	})
	// Per-block decode attribution sums to the same counter.
	var decodeNS, encBytes int64
	for _, c := range rep.Blocks {
		decodeNS += c.DecodeNS
		encBytes += c.ReadBytes
	}
	if want := reg.CounterValue("graphz_codec_decode_ns_total"); decodeNS != want {
		t.Errorf("heat decode ns = %d, counter says %d", decodeNS, want)
	}
	if want := reg.CounterValue("graphz_codec_bytes_encoded_total"); encBytes != want {
		t.Errorf("heat read bytes = %d, encoded counter says %d", encBytes, want)
	}
	// The codec's per-block offset table is resident and on the budget.
	if len(rep.Memory) != res.Iterations {
		t.Fatalf("%d memory samples for %d iterations", len(rep.Memory), res.Iterations)
	}
	for _, m := range rep.Memory {
		if want := g.BlockTableBytes(); want == 0 || m.TableBytes != want {
			t.Errorf("iteration %d accounts a %d-byte offset table, the graph's is %d", m.Iteration, m.TableBytes, want)
		}
	}
}

// TestRunReportSelectiveSkips: the ledger and the heatmap agree on what a
// selective run skipped. The report's block counters equal the Result's,
// and a skipped block is never read, so the edges file's heat read bytes
// fall short of a full scan per iteration — also when partitions start
// mid-block (the v2 case: 64-entry blocks, four partitions).
func TestRunReportSelectiveSkips(t *testing.T) {
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 64)
	for _, tc := range []struct {
		name string
		g    *dos.Graph
	}{
		{"v1", buildDOS(t, edges)},
		{"v2-groupvarint-64", buildDOSCodec(t, edges, storage.CodecGroupVarint, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edgesFile := DOSLayout(tc.g).EdgesFile()
			heatRead := func(selective bool) (Result, *obs.Registry, int64) {
				reg := obs.NewRegistry()
				res, _ := runMinLabel(t, tc.g, Options{
					MemoryBudget:        budgetForPartitions(tc.g, 8, 4, 64),
					DynamicMessages:     true,
					MsgBufferBytes:      64,
					SelectiveScheduling: selective,
					Obs:                 reg,
				})
				var n int64
				for _, c := range reg.Heatmap().Cells() {
					if c.File == edgesFile {
						n += c.ReadBytes
					}
				}
				return res, reg, n
			}
			dense, _, denseRead := heatRead(false)
			res, reg, read := heatRead(true)
			if res.BlocksSkipped == 0 || res.Partitions < 2 {
				t.Fatalf("want a partitioned run that skips blocks: %+v", res)
			}
			if got := reg.CounterValue("graphz_blocks_skipped_total"); got != res.BlocksSkipped {
				t.Errorf("skipped counter = %d, Result says %d", got, res.BlocksSkipped)
			}
			if got := reg.CounterValue("graphz_blocks_scanned_total"); got != res.BlocksScanned {
				t.Errorf("scanned counter = %d, Result says %d", got, res.BlocksScanned)
			}
			fullScan := denseRead / int64(dense.Iterations)
			if read <= 0 || read >= int64(res.Iterations)*fullScan {
				t.Errorf("selective heat read bytes = %d, want in (0, %d): %d iterations of a %d-byte scan",
					read, int64(res.Iterations)*fullScan, res.Iterations, fullScan)
			}
			if len(reg.MemSamples()) != res.Iterations {
				t.Errorf("memory samples = %d, want %d", len(reg.MemSamples()), res.Iterations)
			}
			// The bitmap is accounted once selective scheduling is on.
			if reg.MemSamples()[0].BitmapBytes == 0 {
				t.Error("bitmap bytes not accounted")
			}
		})
	}
}

// TestRunReportRestoreReconciliation: a resumed run's report carries its
// restore, as a stage total and as one counted restoration.
func TestRunReportRestoreReconciliation(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 65)
	dir := t.TempDir()
	g := buildDOS(t, edges)
	opts := ckptBaseOpts(g)
	opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1}
	runMinLabel(t, g, opts)

	g2 := buildDOS(t, edges)
	reg := obs.NewRegistry()
	tr := obs.NewCollectingTracer(nil)
	ropts := ckptBaseOpts(g2)
	ropts.Obs = reg
	ropts.Trace = tr
	ropts.Checkpoint = CheckpointOptions{Dir: dir, Resume: true}
	eng := newMinLabelEngine(t, g2, ropts)
	if _, err := eng.Resume(); err != nil {
		t.Fatal(err)
	}
	eng.Cleanup()
	rep := obs.BuildReport(obs.ReportInfo{Engine: engineName}, reg, tr, nil)
	if rep.StageTotals()[obs.StageRestore] == 0 || rep.Counters["graphz_restore_total"] != 1 {
		t.Errorf("restore stage total %d ns, %d restores", rep.StageTotals()[obs.StageRestore], rep.Counters["graphz_restore_total"])
	}
}
