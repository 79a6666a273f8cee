package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphz/internal/checkpoint"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// resultTwins maps each metric whose fact Result also reports to Result's
// value for it.
func resultTwins(r Result) map[string]int64 {
	return map[string]int64{
		"graphz_messages_inline_total":       r.MessagesInline,
		"graphz_messages_buffered_total":     r.MessagesBuffered,
		"graphz_messages_spilled_total":      r.MessagesSpilled,
		"graphz_messages_spill_errors_total": r.SpillErrors,
		"graphz_blocks_scanned_total":        r.BlocksScanned,
		"graphz_blocks_skipped_total":        r.BlocksSkipped,
		"graphz_codec_bytes_raw_total":       r.CodecBytesRaw,
		"graphz_codec_bytes_encoded_total":   r.CodecBytesEncoded,
		"graphz_codec_decode_ns_total":       int64(r.DecodeTime),
		"graphz_checkpoint_total":            r.Checkpoints,
		"graphz_checkpoint_bytes_total":      r.CheckpointBytes,
		"graphz_checkpoint_ns_total":         int64(r.CheckpointTime),
		"graphz_stage_sio_ns_total":          int64(r.Stages.Sio),
		"graphz_stage_dispatch_ns_total":     int64(r.Stages.Dispatch),
		"graphz_stage_worker_ns_total":       int64(r.Stages.Worker),
		"graphz_stage_drain_ns_total":        int64(r.Stages.Drain),
	}
}

// checkRegistryMatchesResult asserts every metric with a Result twin
// reads what Result reports.
func checkRegistryMatchesResult(t *testing.T, reg *obs.Registry, res Result) {
	t.Helper()
	for name, want := range resultTwins(res) {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, Result says %d", name, got, want)
		}
	}
}

// checkLedgerViews asserts that every view of the ledger agrees after a
// run, finished or aborted: each ledgerMetrics instrument equals its
// field, nothing is left unpublished, and the iteration rows sum to what
// the ledger gained over base (the restored counters of a resumed run,
// zero otherwise). It iterates the table, so a metric added later is
// covered the day it is added.
func checkLedgerViews[V, M any](t *testing.T, eng *Engine[V, M], reg *obs.Registry, base checkpoint.Counters) {
	t.Helper()
	for _, m := range ledgerMetrics {
		if got, want := reg.CounterValue(m.name), *m.field(&eng.c); got != want {
			t.Errorf("%s = %d, the ledger says %d", m.name, got, want)
		}
	}
	if eng.c != eng.published {
		t.Errorf("unpublished ledger tail: %+v published, %+v counted", eng.published, eng.c)
	}
	var sum obs.IterStats
	for _, row := range reg.Iters() {
		sum.Stages.Add(row.Stages)
		sum.MessagesInline += row.MessagesInline
		sum.MessagesBuffered += row.MessagesBuffered
		sum.MessagesSpilled += row.MessagesSpilled
		sum.PrefetchStalls += row.PrefetchStalls
		sum.AdjCacheHits += row.AdjCacheHits
		sum.WorkerChunks += row.WorkerChunks
		sum.WorkerReexecs += row.WorkerReexecs
		sum.BlocksScanned += row.BlocksScanned
		sum.BlocksSkipped += row.BlocksSkipped
	}
	c := eng.c
	want := obs.IterStats{
		Stages:           eng.eo.Run,
		MessagesInline:   c.Inline - base.Inline,
		MessagesBuffered: c.Buffered - base.Buffered,
		MessagesSpilled:  c.Spilled - base.Spilled,
		PrefetchStalls:   c.sioStalls,
		AdjCacheHits:     c.adjHits,
		WorkerChunks:     c.workerChunks,
		WorkerReexecs:    c.workerReexecs,
		BlocksScanned:    c.BlocksScanned - base.BlocksScanned,
		BlocksSkipped:    c.BlocksSkipped - base.BlocksSkipped,
	}
	if sum != want {
		t.Errorf("rows sum to %+v, the ledger gained %+v", sum, want)
	}
	if c.Inline+c.Buffered != c.Sent {
		t.Errorf("inline (%d) + buffered (%d) != sent (%d)", c.Inline, c.Buffered, c.Sent)
	}
}

// TestLedgerViewsAgree pins the rule, not the rows: over the reachable
// option lattice, Result, the registry, the iteration rows and the run
// report are all views of one ledger and cannot disagree. With workers = 4
// under -race it is also the proof that the speculating goroutines never
// touch the ledger.
func TestLedgerViewsAgree(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 71)
	for i := 0; i < 1<<6; i++ { // one bit per axis
		bit := func(b int) bool { return i>>b&1 == 1 }
		codec, parts, dm, sel, workers, ckpt := storage.Codec(nil), int64(1), bit(2), bit(3), 1, bit(5)
		layout := "v1"
		if bit(0) {
			codec, layout = storage.CodecGroupVarint, storage.CodecGroupVarint.Name()
		}
		if bit(1) {
			parts = 4
		}
		if bit(4) {
			workers = 4
		}
		name := fmt.Sprintf("%s/parts=%d/dm=%v/sel=%v/workers=%d/ckpt=%v", layout, parts, dm, sel, workers, ckpt)
		t.Run(name, func(t *testing.T) {
			var g *dos.Graph
			if codec == nil {
				g = buildDOS(t, edges)
			} else {
				g = buildDOSCodec(t, edges, codec, 64)
			}
			reg, tr := obs.NewRegistry(), obs.NewCollectingTracer(nil)
			opts := Options{
				MemoryBudget:        64 << 20,
				DynamicMessages:     dm,
				SelectiveScheduling: sel,
				WorkerParallelism:   workers,
				MsgBufferBytes:      64,
				Obs:                 reg,
				Trace:               tr,
			}
			if parts > 1 {
				opts.MemoryBudget = budgetForPartitions(g, 8, parts, 64)
			}
			if ckpt {
				opts.Checkpoint = CheckpointOptions{Dir: t.TempDir(), Every: 1}
			}
			eng := newMinLabelEngine(t, g, opts)
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if (res.Partitions == 1) != (parts == 1) {
				t.Fatalf("partitions = %d, want the %d-partition case", res.Partitions, parts)
			}
			checkRegistryMatchesResult(t, reg, res)
			checkLedgerViews(t, eng, reg, checkpoint.Counters{})
			if len(reg.Iters()) != res.Iterations {
				t.Errorf("%d rows for %d iterations", len(reg.Iters()), res.Iterations)
			}
			rep := obs.BuildReport(obs.ReportInfo{Engine: engineName}, reg, tr, nil)
			if !reflect.DeepEqual(rep.Counters, reg.Counters()) {
				t.Errorf("report counters %v differ from the registry's %v", rep.Counters, reg.Counters())
			}
			for _, m := range ledgerMetrics {
				if _, ok := rep.Counters[m.name]; !ok {
					t.Errorf("report lacks %s", m.name)
				}
			}
		})
	}
}

// TestLedgerPublishedOnAbort: a run that dies — on a spill the device
// refuses, or cancelled mid-run — still publishes what it did up to the
// failing partition, and the aborted iteration still gets its row.
func TestLedgerPublishedOnAbort(t *testing.T) {
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 72)
	check := func(t *testing.T, eng *Engine[minVal, uint32], reg *obs.Registry) {
		t.Helper()
		if n := reg.CounterValue("graphz_messages_inline_total") + reg.CounterValue("graphz_messages_buffered_total"); n == 0 {
			t.Error("an aborted run published no messages")
		}
		checkLedgerViews(t, eng, reg, checkpoint.Counters{})
	}

	t.Run("third spill fails", func(t *testing.T) {
		// Room for exactly two 64-byte spills beyond the converted graph.
		staging := storage.NewDevice(storage.NullDevice, storage.Options{})
		buildDOSOn(t, staging, edges)
		g := loadOnCapped(t, staging, staging.Used()+2*64+32)
		reg := obs.NewRegistry()
		opts := ckptBaseOpts(g)
		opts.Obs = reg
		eng := newMinLabelEngine(t, g, opts)
		if _, err := eng.Run(); !errors.Is(err, storage.ErrNoSpace) {
			t.Fatalf("err = %v, want ErrNoSpace", err)
		}
		if got := reg.CounterValue("graphz_messages_spilled_total"); got != 2*64/8 {
			t.Errorf("graphz_messages_spilled_total = %d, want the two spills that fit (%d records)", got, 2*64/8)
		}
		if got := reg.CounterValue("graphz_messages_spill_errors_total"); got < 1 {
			t.Errorf("graphz_messages_spill_errors_total = %d after a refused spill", got)
		}
		check(t, eng, reg)
	})

	t.Run("cancelled mid-run", func(t *testing.T) {
		g := buildDOS(t, edges)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		reg := obs.NewRegistry()
		opts := ckptBaseOpts(g)
		opts.Obs, opts.Context = reg, ctx
		eng, err := New[minVal, uint32](DOSLayout(g), &cancelAfterIter{at: 1, cancel: cancel}, minValCodec{}, graph.Uint32Codec{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); !errors.Is(err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
		if rows := reg.Iters(); len(rows) != 2 || rows[1].Iteration != 1 {
			t.Errorf("rows = %+v, want iteration 0 and the aborted iteration 1", rows)
		}
		check(t, eng, reg)
	})
}

// TestResumedRegistryMatchesResult: a process that resumes a run inherits
// the checkpointed counters in its registry as it does in its Result, so
// for every finished run — fresh or resumed — each metric equals its
// Result field.
func TestResumedRegistryMatchesResult(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 73)
	dir := t.TempDir()
	g1 := buildDOS(t, edges)
	opts := ckptBaseOpts(g1)
	opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Keep: 1 << 20}
	full, _ := runMinLabel(t, g1, opts)
	if full.Iterations < 4 || full.MessagesSpilled == 0 {
		t.Fatalf("reference run: %d iterations, %d spilled; want a longer spilling run", full.Iterations, full.MessagesSpilled)
	}
	// Killed after iteration 2: only its checkpoint and earlier survive.
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	iters, err := st.Iterations()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range iters {
		if it > 2 {
			os.RemoveAll(filepath.Join(dir, ckptDirName(it)))
		}
	}
	ck, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}

	g2 := buildDOS(t, edges)
	reg := obs.NewRegistry()
	ropts := ckptBaseOpts(g2)
	ropts.Obs = reg
	ropts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Resume: true}
	eng := newMinLabelEngine(t, g2, ropts)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesInline != full.MessagesInline || res.MessagesSpilled != full.MessagesSpilled {
		t.Fatalf("resumed result %+v does not continue the logical run %+v", res, full)
	}
	checkRegistryMatchesResult(t, reg, res)
	checkLedgerViews(t, eng, reg, ck.Manifest.Counters)
	if got := reg.CounterValue("graphz_restore_total"); got != 1 {
		t.Errorf("graphz_restore_total = %d, want 1", got)
	}
}

// TestObservedAllocs bounds what observability allocates per iteration: an
// observed run's allocations beyond the unobserved run of the same
// configuration may grow by a row, a memory sample, a pipeStats per
// partition and amortized span/row slice growth — a small constant. A
// per-iteration snapshot of every instrument coming back fails it.
func TestObservedAllocs(t *testing.T) {
	const perIteration = 4
	g := buildDOS(t, gen.RMAT(8, 1500, gen.NaturalRMAT, 74))
	// prProg marks every vertex active every round, so the run lasts
	// exactly MaxIterations.
	allocs := func(iters int, observed bool) float64 {
		return testing.AllocsPerRun(5, func() {
			opts := Options{MemoryBudget: 64 << 20, DynamicMessages: true, MaxIterations: iters}
			if observed {
				opts.Obs, opts.Trace = obs.NewRegistry(), obs.NewCollectingTracer(nil)
			}
			eng, err := New[prVal, float64](DOSLayout(g), prProg{}, prCodec{}, f64Codec{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := eng.Run(); err != nil || res.Iterations != iters {
				t.Fatalf("ran %d of %d iterations: %v", res.Iterations, iters, err)
			}
			eng.Cleanup()
		})
	}
	const short, long = 8, 72
	extraShort := allocs(short, true) - allocs(short, false)
	extraLong := allocs(long, true) - allocs(long, false)
	per := (extraLong - extraShort) / (long - short)
	t.Logf("observability allocates %.2f times per extra iteration (%.0f extra over %d iterations, %.0f over %d)",
		per, extraLong, long, extraShort, short)
	if per > perIteration {
		t.Errorf("observability allocates %.2f times per extra iteration, want <= %d", per, perIteration)
	}
}
