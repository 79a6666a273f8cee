package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"graphz/internal/checkpoint"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/sim"
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
		sum.MessagesInline += row.MessagesInline
		sum.MessagesBuffered += row.MessagesBuffered
		sum.MessagesSpilled += row.MessagesSpilled
		sum.BlocksSkipped += row.BlocksSkipped
	}
	c := eng.c
	want := obs.IterStats{
		MessagesInline:   c.Inline - base.Inline,
		MessagesBuffered: c.Buffered - base.Buffered,
		MessagesSpilled:  c.Spilled - base.Spilled,
		BlocksSkipped:    c.BlocksSkipped - base.BlocksSkipped,
	}
	if sum != want {
		t.Errorf("rows sum to %+v, the ledger gained %+v", sum, want)
	}
	if c.Inline+c.Buffered != c.Sent {
		t.Errorf("inline (%d) + buffered (%d) != sent (%d)", c.Inline, c.Buffered, c.Sent)
	}
}

// witnessLabel is minLabel written as a scatter program — one SendAll per
// update — whose Apply also folds every message, in arrival order, into a
// hash: any difference in which messages a vertex was applied, or in what
// order, changes its state bytes. The hash steers nothing, so the program
// stays frontier-safe.
type witnessVal struct{ label, pending, trace uint32 }

type witnessCodec struct{}

func (witnessCodec) Size() int { return 12 }

func (witnessCodec) Encode(b []byte, v witnessVal) {
	binary.LittleEndian.PutUint32(b, v.label)
	binary.LittleEndian.PutUint32(b[4:], v.pending)
	binary.LittleEndian.PutUint32(b[8:], v.trace)
}

func (witnessCodec) Decode(b []byte) witnessVal {
	return witnessVal{binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:]), binary.LittleEndian.Uint32(b[8:])}
}

type witnessLabel struct{}

func (witnessLabel) Init(id graph.VertexID, deg uint32) witnessVal {
	return witnessVal{label: uint32(id), pending: uint32(id)}
}

func (witnessLabel) Update(ctx *Context[uint32], id graph.VertexID, v *witnessVal, adj []graph.VertexID) {
	if ctx.Iteration() == 0 {
		ctx.SendAll(adj, v.label) // sinks send to nobody: an empty dsts
		return
	}
	if v.pending < v.label {
		v.label = v.pending
		ctx.MarkActive()
		ctx.SendAll(adj, v.label)
	}
}

func (witnessLabel) Apply(v *witnessVal, m uint32) {
	v.trace = v.trace*1664525 + m + 1
	if m < v.pending {
		v.pending = m
	}
}

// FrontierSafe: as minLabel — the trace steers nothing.
func (witnessLabel) FrontierSafe() {}

// ApplyAll is the BulkApplier delegate, so witnessLabel as written takes
// the route that inlines Apply.
func (p witnessLabel) ApplyAll(vs []witnessVal, lo graph.VertexID, dsts []graph.VertexID, m uint32) int {
	return ApplyAll(vs, lo, dsts, m, func(v *witnessVal, m uint32) { p.Apply(v, m) })
}

// safeProgram is what the two wrappers below keep of the program they
// wrap: Program's three methods and the FrontierSafe declaration the
// lattice's selective points need, forwarded and no more.
type safeProgram[V, M any] interface {
	Program[V, M]
	FrontierSafe
}

// noBulk runs a program with its ApplyAll, if it has one, hidden from New
// (the embedded interface has no such method): the engine's default bulk
// route, ApplyAll over the bound Apply.
type noBulk[V, M any] struct{ safeProgram[V, M] }

// sendLoop runs a program with Context.SendAll degraded to its
// definition, Send in a loop (a Context serves one Worker pass of one
// program, so the route is swapped and never restored).
type sendLoop[V, M any] struct{ safeProgram[V, M] }

func (p sendLoop[V, M]) Update(ctx *Context[M], id graph.VertexID, v *V, adj []graph.VertexID) {
	ctx.sendAll = func(dsts []graph.VertexID, m M) {
		for _, dst := range dsts {
			ctx.send(dst, m)
		}
	}
	p.safeProgram.Update(ctx, id, v, adj)
}

// ledgerProbe is a run context that never cancels and, each time the
// engine polls it — on its own goroutine, once when Run starts and then
// before every partition — snapshots the ledger.
type ledgerProbe struct {
	context.Context
	snap func()
}

func (p ledgerProbe) Done() <-chan struct{} { p.snap(); return nil }

// manifestAt loads the manifest of the checkpoint taken after iteration
// iter.
func manifestAt(t *testing.T, dir string, iter int) checkpoint.Manifest {
	t.Helper()
	st, err := checkpoint.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := st.Load(iter)
	if err != nil {
		t.Fatal(err)
	}
	return ck.Manifest
}

// comparableRun strips what legitimately differs between two runs of one
// configuration from a Result and its rows: wall-clock; and for a run
// resumed in a second process the counts Result keeps per process and the
// device traffic of the restore (with the states pinned, the first resumed
// iteration loads what an uninterrupted run never stored).
func comparableRun(res Result, rows []obs.IterStats, resumed bool) (Result, []obs.IterStats) {
	res = stripDurability(res)
	res.DecodeTime = 0
	if resumed {
		res.CodecBytesRaw, res.CodecBytesEncoded = 0, 0
	}
	out := make([]obs.IterStats, len(rows))
	for i, row := range rows {
		if resumed {
			row.DeviceSeeks, row.DeviceReadBytes, row.DeviceWriteBytes = 0, 0, 0
		}
		out[i] = row
	}
	return res, out
}

// checkModeledCompute asserts that the modeled clock's compute is a view
// of the ledger: every iteration's phase holds exactly the per-event
// prices of what the ledger gained during it — snaps[1+i*P+p] is the
// ledger before partition p of iteration i — plus the charges kept where
// they happen: Init, the bytes moved, and the selective planner's scan,
// which is bounded here (one unit per block decided on, at most one more
// per vertex) since the ledger does not hold it. spans is the run's trace:
// a partition skipped whole records no worker span, and only a selective
// run may skip one, after Init, with its ledger untouched.
func checkModeledCompute(t *testing.T, eng *Engine[witnessVal, uint32], clock *sim.Clock, snaps []counters, spans []obs.SpanEvent, iters int) {
	t.Helper()
	nParts := eng.NumPartitions()
	worked := map[[2]int]bool{}
	for _, s := range spans {
		if s.Stage == obs.StageWorker {
			worked[[2]int{s.Iter, s.Part}] = true
		}
	}
	snaps = append(snaps[1:], eng.c)
	if len(snaps) != iters*nParts+1 {
		t.Fatalf("%d ledger snapshots for %d iterations of %d partitions", len(snaps), iters, nParts)
	}
	compute := map[string]time.Duration{} // an iteration that charged nothing has no phase
	for _, ph := range clock.Phases() {
		compute[ph.Name] = ph.Compute
	}
	n := int64(eng.layout.NumVertices())
	// The one count the ledger holds for the clock alone, checked against
	// the graph: a full scan hands every entry to an Update, a selective
	// one at most that.
	if scans := int64(iters) * eng.layout.NumEdges(); eng.c.edges > scans || (eng.sel == nil && eng.c.edges != scans) {
		t.Errorf("ledger counts %d adjacency entries over %d iterations of %d", eng.c.edges, iters, eng.layout.NumEdges())
	}
	units := func(n int64, cost time.Duration) time.Duration { return time.Duration(n) * cost }
	for i := 0; i < iters; i++ {
		var want time.Duration
		var scanned int64 // blocks the planner decided on, in partitions it planned
		for p := 0; p < nParts; p++ {
			a, b := snaps[i*nParts+p], snaps[i*nParts+p+1]
			want += units(b.Sent-a.Sent, sim.CostMessageSend) +
				units(b.Applied-a.Applied, sim.CostMessageApply) +
				units(b.Updates-a.Updates, sim.CostVertexUpdate) +
				units(b.edges-a.edges, sim.CostEdgeScan) +
				units((b.Buffered-a.Buffered)*int64((4+eng.msize)/4), sim.CostByteCopy4) // whole 4-byte units per record
			if !worked[[2]int{i, p}] && eng.partStarts[p] < eng.partStarts[p+1] {
				if eng.sel == nil || i == 0 {
					t.Errorf("iteration %d: partition %d recorded no worker span without selective scheduling", i, p)
				}
				if b.Updates != a.Updates || b.Applied != a.Applied || b.edges != a.edges || b.BlocksScanned != a.BlocksScanned {
					t.Errorf("iteration %d: partition %d was skipped whole, yet its ledger moved", i, p)
				}
				continue
			}
			scanned += b.BlocksScanned + b.BlocksSkipped - a.BlocksScanned - a.BlocksSkipped
			if nParts > 1 {
				// Stored every iteration, loaded every one but the first.
				moved := int64(eng.partStarts[p+1]-eng.partStarts[p]) * int64(eng.vsize) / 4
				if i > 0 {
					moved *= 2
				}
				want += units(moved, sim.CostByteCopy4)
			}
		}
		if i == 0 {
			want += units(n, sim.CostVertexUpdate) // Init
		}
		if nParts == 1 && i == iters-1 {
			want += units(n*int64(eng.vsize)/4, sim.CostByteCopy4) // the pinned states' one flush
		}
		lo, hi := want+units(scanned, sim.CostActiveScan), want+units(scanned+n, sim.CostActiveScan)
		if i == 0 {
			hi = lo // every bit set: each partition streams fully, no bit is walked
		}
		if got := compute[fmt.Sprintf("iter%d", i)]; got < lo || got > hi {
			t.Errorf("iteration %d: modeled compute %v, the ledger prices it in [%v, %v]", i, got, lo, hi)
		}
	}
}

// TestLedgerViewsAgree pins the rule, not the rows: over the reachable
// option lattice, Result, the registry, the iteration rows, the run
// report and the modeled clock's compute are all views of one ledger and
// cannot disagree. And at every point the same program by two other routes — its ApplyAll hidden, so that
// SendAll applies through the engine's default loop, and SendAll degraded
// to a Send loop; each crashed and resumed where the point checkpoints —
// leaves the same state bytes, the same Result, the same rows, the same
// checkpoint and the same device traffic file by file: the bulk route is a
// route, not a semantics, and inlining Apply into it changes nothing but
// the time. The adjacency's residency is an axis like the others: the
// one-partition points run under a roomy budget, which keeps the adjacency,
// and again pinned streamed; the four-partition budget is exact and leaves
// it no room, so there the pin would change nothing and has no rows. Every
// run of every point keeps its memory timeline within its budget
// (checkWithinBudget).
func TestLedgerViewsAgree(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 71)
	// Self-loops and duplicate edges: the one place where the order of
	// applies inside a single SendAll can show.
	for i := 0; i < 40; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i)}, edges[3*i], edges[3*i])
	}
	for i := 0; i < 1<<7; i++ { // one bit per axis
		bit := func(b int) bool { return i>>b&1 == 1 }
		codec, parts, dm, sel, ckpt, stream := storage.Codec(nil), int64(1), bit(2), bit(3), bit(4), bit(6)
		// The 8-byte record every shipped program buffers, and (labels fit
		// 16 bits here) the awkward 6-byte one: it fills neither a 4-byte
		// copy unit, nor the 64-byte buffer, nor a device block evenly.
		mc, rec := graph.Codec[uint32](graph.Uint32Codec{}), ""
		if bit(5) {
			mc, rec = padCodec{2}, "rec=6/"
		}
		layout := "v1"
		if bit(0) {
			codec, layout = storage.CodecGroupVarint, storage.CodecGroupVarint.Name()
		}
		if bit(1) {
			parts = 4
		}
		// workers=1: the rows' IDs from when workers=4 ran beside them.
		name := fmt.Sprintf("%s%s/parts=%d/dm=%v/sel=%v/workers=1/ckpt=%v", rec, layout, parts, dm, sel, ckpt)
		if stream {
			if parts > 1 {
				continue
			}
			name += "/streamed"
		}
		t.Run(name, func(t *testing.T) {
			build := func() *dos.Graph {
				if codec == nil {
					return buildDOS(t, edges)
				}
				return buildDOSCodec(t, edges, codec, 64)
			}
			g := build()
			if l := DOSLayout(g); l.DegreeOf(graph.VertexID(l.NumVertices()-1)) != 0 {
				t.Fatal("the graph has no sink: no update sends to an empty adjacency")
			}
			options := func(reg *obs.Registry, dir string) Options {
				opts := Options{
					MemoryBudget:        64 << 20,
					DynamicMessages:     dm,
					SelectiveScheduling: sel,
					MsgBufferBytes:      64,
					StreamAdjacency:     stream,
					Obs:                 reg,
				}
				if parts > 1 {
					opts.MemoryBudget = budgetForPartitions(g, 12, parts, 64)
				}
				if ckpt {
					opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Keep: 1 << 20}
				}
				return opts
			}
			newEngine := func(g *dos.Graph, prog Program[witnessVal, uint32], opts Options) *Engine[witnessVal, uint32] {
				eng, err := New[witnessVal, uint32](DOSLayout(g), prog, witnessCodec{}, mc, opts)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			stateBytes := func(eng *Engine[witnessVal, uint32]) []byte {
				vals, err := eng.Values()
				if err != nil {
					t.Fatal(err)
				}
				return encodeStates[witnessVal](witnessCodec{}, vals)
			}
			pool := pooledOutstanding()

			// As written: SendAll through the program's own ApplyAll, every
			// view attached.
			reg, tr, clock := obs.NewRegistry(), obs.NewCollectingTracer(nil), sim.NewClock()
			opts := options(reg, t.TempDir())
			opts.Trace, opts.Clock = tr, clock
			var eng *Engine[witnessVal, uint32]
			var snaps []counters
			opts.Context = ledgerProbe{context.Background(), func() { snaps = append(snaps, eng.c) }}
			eng = newEngine(g, witnessLabel{}, opts)
			if _, own := eng.bulk.(witnessLabel); !own {
				t.Fatalf("New bound %T, not the program's ApplyAll", eng.bulk)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			// The device's whole traffic, Convert's included: total and per file.
			wantTotal, wantFiles := eng.dev.Stats(), eng.dev.FileStats()
			if (res.Partitions == 1) != (parts == 1) {
				t.Fatalf("partitions = %d, want the %d-partition case", res.Partitions, parts)
			}
			if want := parts == 1 && !stream; res.ResidentAdjacency != want {
				t.Fatalf("ResidentAdjacency = %v, want %v", res.ResidentAdjacency, want)
			}
			// A selective point whose option was dropped on the way would pass
			// every comparison below while scheduling nothing.
			if scheduled := res.BlocksScanned+res.BlocksSkipped > 0; scheduled != sel {
				t.Fatalf("sel=%v, yet the planner scanned %d blocks and skipped %d", sel, res.BlocksScanned, res.BlocksSkipped)
			}
			checkWithinBudget(t, reg.MemSamples())
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
			checkModeledCompute(t, eng, clock, snaps, tr.Events(), res.Iterations)

			// The same point by the two other routes. A checkpointing point
			// is killed after iteration 2 and finished by a second process.
			const cut = 2
			if res.Iterations <= cut {
				t.Fatalf("the run took %d iterations; the resume needs more than %d", res.Iterations, cut)
			}
			wantRes, wantRows := comparableRun(res, reg.Iters(), ckpt)
			if ckpt {
				wantRows = wantRows[cut:]
			}
			wantBytes := stateBytes(eng)
			for _, route := range []struct {
				name string
				prog Program[witnessVal, uint32]
			}{
				{"default ApplyAll", noBulk[witnessVal, uint32]{witnessLabel{}}},
				{"Send loop", sendLoop[witnessVal, uint32]{witnessLabel{}}},
			} {
				gotReg, dir := obs.NewRegistry(), t.TempDir()
				gotEng := newEngine(build(), route.prog, options(gotReg, dir))
				if _, own := gotEng.bulk.(applyLoop[witnessVal, uint32]); !own {
					t.Fatalf("%s: New bound %T, not the default loop", route.name, gotEng.bulk)
				}
				gotRes, err := gotEng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if total, files := gotEng.dev.Stats(), gotEng.dev.FileStats(); total != wantTotal || !reflect.DeepEqual(files, wantFiles) {
					t.Errorf("%s: device traffic %+v %+v, as written: %+v %+v", route.name, total, files, wantTotal, wantFiles)
				}
				if ckpt {
					// Every state byte, bit and pending message record — a
					// manifest names each section's CRC — and every counter are
					// already the same mid-run: inside one SendAll the order
					// shows only in the order of the records it buffers.
					if got, want := manifestAt(t, dir, cut), manifestAt(t, opts.Checkpoint.Dir, cut); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: checkpoint %d is %+v, as written: %+v", route.name, cut, got, want)
					}
					for it := cut + 1; it <= gotRes.Iterations; it++ {
						os.RemoveAll(filepath.Join(dir, ckptDirName(it)))
					}
					checkWithinBudget(t, gotReg.MemSamples()) // the killed process's
					gotReg = obs.NewRegistry()
					ropts := options(gotReg, dir)
					ropts.Checkpoint.Resume = true
					gotEng = newEngine(build(), route.prog, ropts)
					if gotRes, err = gotEng.Run(); err != nil {
						t.Fatal(err)
					}
				}
				checkWithinBudget(t, gotReg.MemSamples())
				gotRes, gotRows := comparableRun(gotRes, gotReg.Iters(), ckpt)
				if gotRes != wantRes {
					t.Errorf("%s: result %+v, as written: %+v", route.name, gotRes, wantRes)
				}
				if len(gotRows) != len(wantRows) {
					t.Fatalf("%s: %d rows, as written: %d", route.name, len(gotRows), len(wantRows))
				}
				for i := range wantRows {
					if gotRows[i] != wantRows[i] {
						t.Errorf("%s: row %+v, as written: %+v", route.name, gotRows[i], wantRows[i])
					}
				}
				if !bytes.Equal(stateBytes(gotEng), wantBytes) {
					t.Errorf("%s leaves different vertex state bytes", route.name)
				}
			}
			if got := pooledOutstanding(); got != pool {
				t.Errorf("%d pooled buffers outstanding after the three runs, %d before", got, pool)
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
			eng, err := New[prVal, float64](DOSLayout(g), prProg{}, prCodec{}, graph.Float64Codec{}, opts)
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
