package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphz/internal/checkpoint"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// semOpts forces the fast path under a budget that can pin the states.
func semOpts() Options {
	return Options{
		MemoryBudget:    64 << 20,
		DynamicMessages: true,
		SemiExternal:    SemOn,
	}
}

// partitionedOpts is the spilling multi-partition baseline every SEM
// differential compares against.
func partitionedOpts(g *dos.Graph) Options {
	return Options{
		MemoryBudget:    budgetForPartitions(g, 8, 4, 64),
		DynamicMessages: true,
		MsgBufferBytes:  64,
		SemiExternal:    SemOff,
	}
}

// assertSemShape checks the structural invariants of a SEM result: one
// partition, everything inline, nothing buffered or spilled.
func assertSemShape(t *testing.T, res Result) {
	t.Helper()
	if !res.SemiExternal {
		t.Fatal("run did not take the semi-external path")
	}
	if res.Partitions != 1 {
		t.Errorf("partitions = %d, want 1 under SEM", res.Partitions)
	}
	if res.MessagesBuffered != 0 || res.MessagesSpilled != 0 {
		t.Errorf("buffered %d spilled %d, want 0/0 under SEM",
			res.MessagesBuffered, res.MessagesSpilled)
	}
	if res.MessagesInline != res.MessagesSent {
		t.Errorf("inline %d != sent %d: SEM must apply every message inline",
			res.MessagesInline, res.MessagesSent)
	}
}

// TestSemMatchesPartitioned is the core differential, in two strengths.
// Against the single-partition partitioned run — same message routing,
// every send inline — the SEM result must be IDENTICAL: same states,
// same counters, same iteration count; the fast path only removes the
// per-iteration vertex-state round trip and the empty drain. Against
// the spilling multi-partition baseline the converged states must still
// match exactly, but SEM may take fewer iterations: a cross-partition
// message there waits for the next iteration's drain, while SEM applies
// it inline, so information propagates at least as fast. Both checks run
// across sequential and parallel workers and selective scheduling.
func TestSemMatchesPartitioned(t *testing.T) {
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 71)
	variants := []struct {
		name string
		mod  func(*Options)
	}{
		{"sequential", func(*Options) {}},
		{"workers4", func(o *Options) { o.WorkerParallelism = 4 }},
		{"selective", func(o *Options) { o.SelectiveScheduling = true }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			gSem := buildDOS(t, edges)
			so := semOpts()
			v.mod(&so)
			semRes, semVals := runMinLabel(t, gSem, so)
			assertSemShape(t, semRes)

			// Exact identity vs the single-partition partitioned run.
			gOne := buildDOS(t, edges)
			oneOpts := Options{MemoryBudget: 64 << 20, DynamicMessages: true, SemiExternal: SemOff}
			v.mod(&oneOpts)
			oneRes, oneVals := runMinLabel(t, gOne, oneOpts)
			if oneRes.Partitions != 1 {
				t.Fatalf("partitioned control split into %d partitions", oneRes.Partitions)
			}
			normalized := stripDurability(oneRes)
			normalized.SemiExternal = true // the only field allowed to differ
			if normalized != stripDurability(semRes) {
				t.Errorf("sem result %+v differs from single-partition control %+v", semRes, oneRes)
			}
			for i := range oneVals {
				if semVals[i] != oneVals[i] {
					t.Fatalf("vertex %d: sem %+v, single-partition %+v", i, semVals[i], oneVals[i])
				}
			}

			// Converged-state identity vs the spilling multi-partition run.
			gBase := buildDOS(t, edges)
			baseOpts := partitionedOpts(gBase)
			v.mod(&baseOpts)
			baseRes, baseVals := runMinLabel(t, gBase, baseOpts)
			if baseRes.Partitions < 2 {
				t.Fatalf("baseline partitions = %d, want >= 2", baseRes.Partitions)
			}
			if baseRes.MessagesSpilled == 0 {
				t.Fatal("baseline did not spill — differential would prove nothing")
			}
			if semRes.Iterations > baseRes.Iterations {
				t.Errorf("sem took %d iterations, multi-partition %d — inline apply cannot be slower",
					semRes.Iterations, baseRes.Iterations)
			}
			for i := range baseVals {
				if semVals[i] != baseVals[i] {
					t.Fatalf("vertex %d: sem %+v, partitioned %+v", i, semVals[i], baseVals[i])
				}
			}
		})
	}
}

// TestSemAutoDetection pins the auto boundary: exactly at SemBudgetBytes
// the engine goes semi-external, one byte below it partitions, and
// without dynamic messages it never does regardless of budget.
func TestSemAutoDetection(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 72)
	g := buildDOS(t, edges)
	need := SemBudgetBytes(DOSLayout(g), 8)

	run := func(budget int64) Result {
		t.Helper()
		res, _ := runMinLabel(t, buildDOS(t, edges), Options{
			MemoryBudget: budget, DynamicMessages: true, MsgBufferBytes: 64,
		})
		return res
	}

	if res := run(need); !res.SemiExternal {
		t.Errorf("budget == SemBudgetBytes (%d): partitioned, want semi-external", need)
	}
	if res := run(need - 1); res.SemiExternal {
		t.Errorf("budget one below SemBudgetBytes: semi-external, want partitioned")
	}

	// Without DynamicMessages auto must not trigger even with slack.
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{}, Options{
		MemoryBudget: 64 << 20, MaxIterations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.SemiExternal() {
		t.Error("static-message engine took the SEM path")
	}
	eng.Cleanup()
}

// TestSemForcedErrors: SemOn fails typed at New — ErrMemoryBudget when
// the states cannot be pinned, ErrInvalidOptions without dynamic
// messages.
func TestSemForcedErrors(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 73)
	g := buildDOS(t, edges)

	_, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{}, Options{
		MemoryBudget: SemBudgetBytes(DOSLayout(g), 8) - 1, DynamicMessages: true, SemiExternal: SemOn,
	})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("unpinnable SemOn: %v, want ErrMemoryBudget", err)
	}

	_, err = New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{}, Options{
		MemoryBudget: 64 << 20, SemiExternal: SemOn,
	})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("SemOn without DynamicMessages: %v, want ErrInvalidOptions", err)
	}
}

func TestSemParseMode(t *testing.T) {
	for in, want := range map[string]SemMode{
		"": SemAuto, "auto": SemAuto, "on": SemOn, "true": SemOn, "off": SemOff, "false": SemOff,
	} {
		got, err := ParseSemMode(in)
		if err != nil || got != want {
			t.Errorf("ParseSemMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSemMode("fast"); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("ParseSemMode(fast) = %v, want ErrInvalidOptions", err)
	}
	for m, s := range map[SemMode]string{SemAuto: "auto", SemOn: "on", SemOff: "off"} {
		if m.String() != s {
			t.Errorf("SemMode(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
}

// TestSemNoMessageFiles: a SEM run never creates message or spill files,
// and Cleanup leaves the shared device empty of runtime files.
func TestSemNoMessageFiles(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 74)
	g := buildDOS(t, edges)
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{}, semOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range g.Device().List() {
		if strings.Contains(f, ".msgs") || strings.Contains(f, ".runs") {
			t.Errorf("SEM run created message/spill file %q", f)
		}
	}
	eng.Cleanup()
	for _, f := range g.Device().List() {
		if strings.Contains(f, ".vstate") {
			t.Errorf("Cleanup left %q behind", f)
		}
	}
}

// TestSemObservability: the fast path is honest about itself — a
// graphz_sem_runs_total tick, zero buffered/spilled counters, and
// exactly three spans per iteration (sio, dispatch, worker; the drain
// stage genuinely never runs, so it emits nothing).
func TestSemObservability(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 75)
	g := buildDOS(t, edges)
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	tr := obs.NewTracer(&traceBuf)
	opts := semOpts()
	opts.Obs = reg
	opts.Trace = tr
	res, _ := runMinLabel(t, g, opts)
	assertSemShape(t, res)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	if got := reg.CounterValue("graphz_sem_runs_total"); got != 1 {
		t.Errorf("graphz_sem_runs_total = %d, want 1", got)
	}
	if got := reg.CounterValue("graphz_messages_spilled_total"); got != 0 {
		t.Errorf("graphz_messages_spilled_total = %d, want 0", got)
	}
	if got := reg.CounterValue("graphz_messages_inline_total"); got != res.MessagesSent {
		t.Errorf("graphz_messages_inline_total = %d, want %d", got, res.MessagesSent)
	}

	spans := parseSpans(t, &traceBuf)
	byStage := map[string]int{}
	for _, e := range spans {
		byStage[e.Stage]++
	}
	if byStage[obs.StageDrain] != 0 {
		t.Errorf("SEM run emitted %d drain spans, want 0", byStage[obs.StageDrain])
	}
	for _, st := range []string{obs.StageSio, obs.StageDispatch, obs.StageWorker} {
		if byStage[st] != res.Iterations {
			t.Errorf("%s spans = %d, want one per iteration (%d)", st, byStage[st], res.Iterations)
		}
	}
	if res.Stages.Drain != 0 {
		t.Errorf("Result.Stages.Drain = %v, want 0 — the stage never ran", res.Stages.Drain)
	}
}

// TestSemCheckpointResume: resuming a SEM run from every mid-run
// checkpoint reproduces the uninterrupted SEM run exactly.
func TestSemCheckpointResume(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 76)
	gRef := buildDOS(t, edges)
	refOpts := semOpts()
	refRes, refVals := runMinLabel(t, gRef, refOpts)
	assertSemShape(t, refRes)
	if refRes.Iterations < 3 {
		t.Fatalf("converged in %d iterations; too few for mid-run resume", refRes.Iterations)
	}

	for k := 1; k < refRes.Iterations; k++ {
		dir := t.TempDir()
		g1 := buildDOS(t, edges)
		opts := semOpts()
		opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Keep: 1 << 20}
		runMinLabel(t, g1, opts)
		st, err := checkpoint.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		iters, err := st.Iterations()
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range iters {
			if it > k {
				os.RemoveAll(filepath.Join(dir, ckptDirName(it)))
			}
		}

		g2 := buildDOS(t, edges)
		ropts := semOpts()
		ropts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Resume: true}
		eng := newMinLabelEngine(t, g2, ropts)
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("resume from iteration %d: %v", k, err)
		}
		vals, err := eng.Values()
		if err != nil {
			t.Fatal(err)
		}
		assertSemShape(t, res)
		if stripDurability(res) != stripDurability(refRes) {
			t.Errorf("resume from %d: result %+v, uninterrupted %+v", k, res, refRes)
		}
		for i := range refVals {
			if vals[i] != refVals[i] {
				t.Fatalf("resume from %d: vertex %d = %+v, uninterrupted %+v", k, i, vals[i], refVals[i])
			}
		}
		eng.Cleanup()
	}
}

// TestSemCheckpointCrossMode: a checkpoint written by one mode cannot be
// resumed by the other — the iteration cursor and message sections mean
// different things, so the mismatch must fail typed, not corrupt.
func TestSemCheckpointCrossMode(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 77)

	// SEM checkpoint, partitioned resume.
	semDir := t.TempDir()
	g1 := buildDOS(t, edges)
	so := semOpts()
	so.Checkpoint = CheckpointOptions{Dir: semDir, Every: 1}
	runMinLabel(t, g1, so)

	g2 := buildDOS(t, edges)
	po := partitionedOpts(g2)
	po.Checkpoint = CheckpointOptions{Dir: semDir, Resume: true}
	eng := newMinLabelEngine(t, g2, po)
	if _, err := eng.Resume(); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Errorf("partitioned resume of SEM checkpoint = %v, want ErrConfigMismatch", err)
	}

	// Partitioned checkpoint, SEM resume. The partitioned baseline here
	// must be single-partition so only the mode differs, not the
	// partition count (which already fails the config check).
	partDir := t.TempDir()
	g3 := buildDOS(t, edges)
	po2 := Options{MemoryBudget: 64 << 20, DynamicMessages: true, SemiExternal: SemOff,
		Checkpoint: CheckpointOptions{Dir: partDir, Every: 1}}
	runMinLabel(t, g3, po2)

	g4 := buildDOS(t, edges)
	so2 := semOpts()
	so2.Checkpoint = CheckpointOptions{Dir: partDir, Resume: true}
	eng2 := newMinLabelEngine(t, g4, so2)
	if _, err := eng2.Resume(); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Errorf("SEM resume of partitioned checkpoint = %v, want ErrConfigMismatch", err)
	}
}

// TestSemConvergedResume: Values() after resuming a converged SEM
// checkpoint reads the restored states without iterating.
func TestSemConvergedResume(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 78)
	dir := t.TempDir()
	g := buildDOS(t, edges)
	opts := semOpts()
	opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1}
	refRes, refVals := runMinLabel(t, g, opts)

	g2 := buildDOS(t, edges)
	ropts := semOpts()
	ropts.Checkpoint = CheckpointOptions{Dir: dir, Resume: true}
	eng := newMinLabelEngine(t, g2, ropts)
	res, err := eng.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdatesRun != refRes.UpdatesRun || res.Iterations != refRes.Iterations {
		t.Errorf("converged SEM resume ran work: %+v vs %+v", res, refRes)
	}
	vals, err := eng.Values()
	if err != nil {
		t.Fatal(err)
	}
	for i := range refVals {
		if vals[i] != refVals[i] {
			t.Fatalf("vertex %d: resumed %+v, original %+v", i, vals[i], refVals[i])
		}
	}
	eng.Cleanup()
}

// semZipfGraph is the medium high-fan-in graph the SEM crossover is
// measured on: the partitioned baseline buffers and spills heavily, SEM
// pins 16000 states in a few hundred KiB.
func semZipfGraph(tb testing.TB) *dos.Graph {
	tb.Helper()
	edges := gen.Zipf(16000, 160_000, 1.05, 7)
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		tb.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev}, "raw", "g")
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// semBenchOpts pairs the buffered multi-partition baseline against the
// forced fast path on the same graph and program.
func semBenchOpts(g *dos.Graph, sem bool) Options {
	if sem {
		return Options{MemoryBudget: 64 << 20, DynamicMessages: true,
			SemiExternal: SemOn, MaxIterations: 3}
	}
	return Options{MemoryBudget: budgetForPartitions(g, 16, 4, 4096),
		DynamicMessages: true, MsgBufferBytes: 4096,
		SemiExternal: SemOff, MaxIterations: 3}
}

func runSemBench(tb testing.TB, g *dos.Graph, sem bool) Result {
	tb.Helper()
	eng, err := New[prVal, float64](DOSLayout(g), prProg{}, prCodec{}, f64Codec{}, semBenchOpts(g, sem))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		tb.Fatal(err)
	}
	eng.Cleanup()
	return res
}

// BenchmarkEngineSEM is the crossover benchmark recorded in
// ci/bench-baseline.json: the same PageRank-style run on the Zipf graph,
// partitioned-and-buffered versus semi-external.
func BenchmarkEngineSEM(b *testing.B) {
	g := semZipfGraph(b)
	for _, mode := range []struct {
		name string
		sem  bool
	}{{"partitioned", false}, {"sem", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSemBench(b, g, mode.sem)
			}
		})
	}
}

// TestSEMSpeedup asserts the paper-level claim the mode exists for: on
// the medium Zipf graph, the zero-spill resident-state run beats the
// buffered partitioned run by at least 1.5x. Timing-sensitive; skipped
// under -short and race builds.
func TestSEMSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing test; race instrumentation distorts it")
	}
	g := semZipfGraph(t)

	// The differential guard first: same graph, same program, the SEM
	// run must be zero-spill while the baseline actually buffers.
	base := runSemBench(t, g, false)
	if base.MessagesSpilled == 0 {
		t.Fatal("partitioned baseline did not spill — speedup would be meaningless")
	}
	semRes := runSemBench(t, g, true)
	if !semRes.SemiExternal || semRes.MessagesSpilled != 0 || semRes.MessagesBuffered != 0 {
		t.Fatalf("sem run shape wrong: %+v", semRes)
	}

	run := func(sem bool) time.Duration {
		best := time.Duration(1 << 62)
		for try := 0; try < 3; try++ {
			t0 := time.Now()
			runSemBench(t, g, sem)
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	buffered := run(false)
	semD := run(true)
	speedup := float64(buffered) / float64(semD)
	t.Logf("partitioned %v, sem %v: %.2fx", buffered, semD, speedup)
	if speedup < 1.5 {
		t.Errorf("SEM speedup %.2fx, want >= 1.5x", speedup)
	}
}
