package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// The crash-recovery property: for a checkpointed run killed at an
// arbitrary device operation, resuming produces vertex states
// byte-identical to an uninterrupted run — and identical counters. The
// harness measures the run's device-op count with a probe, then crashes
// trial runs at seeded random operations (with torn writes) and resumes
// each on the same post-crash device after a "reboot" (Disarm).

// splitmix64 for trial randomness, seeded per harness so runs reproduce.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buildDOSOn converts edges on the given device (deterministically: the
// same edges always produce the same layout, which is what lets a
// rebuilt graph pass the checkpoint's layout-hash check).
func buildDOSOn(t *testing.T, dev *storage.Device, edges []graph.Edge) *dos.Graph {
	t.Helper()
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func encodeStates[V any](vc graph.Codec[V], vals []V) []byte {
	enc := make([]byte, len(vals)*vc.Size())
	for i, v := range vals {
		vc.Encode(enc[i*vc.Size():], v)
	}
	return enc
}

// crashRecoveryHarness runs the property for one program and returns the
// uninterrupted run's Result. tune, when non-nil, is applied to every engine
// it builds (reference, probe, crashing, recovering) between New and Run, for
// an unexported seam such as forceSparse. A recovering process that keeps
// the adjacency resident must also read the edges file exactly once — its
// own fill — or, restored already converged, not at all.
func crashRecoveryHarness[V, M any](t *testing.T, edges []graph.Edge, prog Program[V, M], vc graph.Codec[V], mc graph.Codec[M], maxIters int, seed uint64, tune func(*Engine[V, M]), mutate ...func(*dos.Graph, *Options)) Result {
	t.Helper()
	baseOpts := func(g *dos.Graph) Options {
		opts := Options{
			MemoryBudget:    budgetForPartitions(g, int64(vc.Size()), 4, 64),
			DynamicMessages: true,
			MsgBufferBytes:  64,
			MaxIterations:   maxIters,
		}
		for _, m := range mutate {
			m(g, &opts)
		}
		return opts
	}
	newEng := func(g *dos.Graph, dir string, resume bool) *Engine[V, M] {
		opts := baseOpts(g)
		opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Resume: resume}
		eng, err := New[V, M](DOSLayout(g), prog, vc, mc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tune != nil {
			tune(eng)
		}
		return eng
	}

	// Reference: uninterrupted checkpointed run.
	refDev := storage.NewDevice(storage.NullDevice, storage.Options{})
	refEng := newEng(buildDOSOn(t, refDev, edges), t.TempDir(), false)
	refRes, err := refEng.Run()
	if err != nil {
		t.Fatal(err)
	}
	refVals, err := refEng.Values()
	if err != nil {
		t.Fatal(err)
	}
	refBytes := encodeStates(vc, refVals)

	// Probe: same run on an armed (but fault-free) device to count ops.
	probe := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
	gP := buildDOSOn(t, probe.Device, edges)
	probe.Arm(storage.FaultPlan{})
	if _, err := newEng(gP, t.TempDir(), false).Run(); err != nil {
		t.Fatal(err)
	}
	totalOps := probe.Ops()
	if totalOps < 10 {
		t.Fatalf("probe counted only %d device ops; harness is vacuous", totalOps)
	}

	rng := seed
	crashes := 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		crashAt := int64(1 + splitmix64(&rng)%uint64(totalOps))
		dir := t.TempDir()
		fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
		g := buildDOSOn(t, fd.Device, edges)
		fd.Arm(storage.FaultPlan{Seed: splitmix64(&rng), CrashAtOp: crashAt, TornWrites: true})
		_, err := newEng(g, dir, false).Run()
		if err != nil {
			if !errors.Is(err, storage.ErrCrashed) {
				t.Logf("trial %d (crash at op %d): run failed with %v (not ErrCrashed; wrapped errors are fine as long as recovery works)", trial, crashAt, err)
			}
			crashes++
		}
		// Reboot: same device, crash latch cleared, torn state intact.
		fd.Disarm()
		reng := newEng(g, dir, true)
		edgeReads := fd.FileStats()[g.EdgesFile()].ReadBytes
		res, err := reng.Run()
		if err != nil {
			t.Fatalf("trial %d (crash at op %d/%d): recovery failed: %v", trial, crashAt, totalOps, err)
		}
		if reng.AdjacencyCached() {
			var want int64
			if reng.resident.data != nil {
				if want, err = fd.Size(g.EdgesFile()); err != nil {
					t.Fatal(err)
				}
			}
			if got := fd.FileStats()[g.EdgesFile()].ReadBytes - edgeReads; got != want {
				t.Fatalf("trial %d (crash at op %d/%d): recovery read %d bytes of the edges file, want %d", trial, crashAt, totalOps, got, want)
			}
		}
		vals, err := reng.Values()
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeStates(vc, vals); !bytes.Equal(got, refBytes) {
			for i := 0; i < len(refBytes)/vc.Size(); i++ {
				a := refBytes[i*vc.Size() : (i+1)*vc.Size()]
				b := got[i*vc.Size() : (i+1)*vc.Size()]
				if !bytes.Equal(a, b) {
					t.Fatalf("trial %d (crash at op %d/%d): vertex %d state %x, uninterrupted %x", trial, crashAt, totalOps, i, b, a)
				}
			}
		}
		if stripDurability(res) != stripDurability(refRes) {
			t.Fatalf("trial %d (crash at op %d/%d): result %+v, uninterrupted %+v", trial, crashAt, totalOps, res, refRes)
		}
	}
	if crashes == 0 {
		t.Fatalf("none of %d trials crashed; harness is vacuous", trials)
	}
	return refRes
}

func TestCrashRecoveryMinLabelSequential(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 61)
	crashRecoveryHarness[minVal, uint32](t, edges, minLabel{}, minValCodec{}, graph.Uint32Codec{}, 0, 101, nil)
}

// The selective variants add the active-vertex bitmap to the durable
// state: a resumed run must restore it from the checkpoint's "activeset"
// section and reproduce the uninterrupted run's schedule exactly —
// including the BlocksScanned/BlocksSkipped counters compared through
// stripDurability's Result equality below.

func TestCrashRecoverySelectiveSequential(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 65)
	// A never-reachable density threshold keeps every partition on the
	// sparse run-scheduled path, so the restored bitmap drives real
	// block skipping across the crash boundary.
	crashRecoveryHarness[minVal, uint32](t, edges, minLabel{}, minValCodec{}, graph.Uint32Codec{}, 0, 105,
		forceSparse[minVal, uint32], func(_ *dos.Graph, o *Options) { o.SelectiveScheduling = true })
}

func TestCrashRecoveryPageRankSequential(t *testing.T) {
	edges := gen.RMAT(8, 2000, gen.NaturalRMAT, 63)
	crashRecoveryHarness[prVal, float64](t, edges, prProg{}, prCodec{}, graph.Float64Codec{}, 5, 103, nil)
}

// TestCrashRecoveryResidentAdjacency: the property with the adjacency kept
// — a graph sparse enough that the budget holds it beside half the states,
// so messages still spill between two partitions. Every recovering process
// starts with an empty cache and fills it once.
func TestCrashRecoveryResidentAdjacency(t *testing.T) {
	edges := gen.ErdosRenyi(6000, 3000, 69)
	ref := crashRecoveryHarness[minVal, uint32](t, edges, minLabel{}, minValCodec{}, graph.Uint32Codec{}, 0, 107, nil,
		func(g *dos.Graph, o *Options) { o.MemoryBudget = budgetForPartitions(g, 8, 2, 64) + g.NumEdges*4 + 8 })
	if !ref.ResidentAdjacency || ref.Partitions != 2 || ref.MessagesSpilled == 0 {
		t.Errorf("the run %+v, want a resident adjacency and spills between two partitions", ref)
	}
}

// TestCrashRecoveryParentCheckpoint resumes a checkpoint the parent commit's
// engine wrote (testdata/ckpt-parent-b279982: min-label on this graph, four
// partitions, selective scheduling, the process gone after iteration 2 of 4)
// to the states and counters of an uninterrupted run of today's engine.
func TestCrashRecoveryParentCheckpoint(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 61)
	g := buildDOS(t, edges)
	opts := ckptBaseOpts(g)
	opts.SelectiveScheduling = true
	refRes, refVals := runMinLabel(t, g, opts)

	// Resume from a copy: the resumed run checkpoints where it resumes from.
	src, dir := "testdata/ckpt-parent-b279982/"+ckptDirName(2), t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, ckptDirName(2)), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(src + "/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("%d fixture files under %s: %v", len(files), src, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, ckptDirName(2), filepath.Base(f)), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	opts.Obs, opts.Checkpoint = reg, CheckpointOptions{Dir: dir, Resume: true}
	res, vals := runMinLabel(t, buildDOS(t, edges), opts)
	if got := reg.CounterValue("graphz_restore_total"); got != 1 {
		t.Fatalf("graphz_restore_total = %d: the run did not start from the checkpoint", got)
	}
	if stripDurability(res) != stripDurability(refRes) {
		t.Errorf("resumed result %+v, uninterrupted %+v", res, refRes)
	}
	if !bytes.Equal(encodeStates[minVal](minValCodec{}, vals), encodeStates[minVal](minValCodec{}, refVals)) {
		t.Error("resumed run's state bytes differ from the uninterrupted run's")
	}
}

// TestCrashRecoveryMidDrain aims the crash instead of drawing it: the
// device dies on the second block read of a drain whose spill file spans
// two device blocks of 24-byte records — one of them straddling the
// boundary — and, in a second trial, that read fails transiently. Either
// way the run fails typed under the drain's name, and a resumed run
// finishes byte-identical to an uninterrupted one.
func TestCrashRecoveryMidDrain(t *testing.T) {
	edges := gen.ErdosRenyi(4096, 80_000, 67)
	newEng := func(g *dos.Graph, dir string, resume bool, probe func()) *Engine[witnessVal, uint32] {
		opts := Options{
			MemoryBudget:    budgetForPartitions(g, 12, 4, 4096),
			DynamicMessages: true,
			MsgBufferBytes:  4096,
			Checkpoint:      CheckpointOptions{Dir: dir, Every: 1, Resume: resume},
		}
		if probe != nil {
			opts.Context = ledgerProbe{context.Background(), probe}
		}
		eng, err := New[witnessVal, uint32](DOSLayout(g), witnessLabel{}, witnessCodec{}, padCodec{20}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	// Uninterrupted, on an armed but fault-free device: the reference
	// bytes, and the device-operation count at every partition boundary.
	probe := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
	gP := buildDOSOn(t, probe.Device, edges)
	probe.Arm(storage.FaultPlan{})
	var opsAt []int64 // opsAt[1+i*P+p]: operations before partition p of iteration i
	refEng := newEng(gP, t.TempDir(), false, func() { opsAt = append(opsAt, probe.Ops()) })
	refRes, err := refEng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Partitions < 3 || refRes.Iterations < 3 {
		t.Fatalf("reference run: %+v, want a few partitions and iterations", refRes)
	}
	refVals, err := refEng.Values()
	if err != nil {
		t.Fatal(err)
	}
	refBytes := encodeStates[witnessVal](witnessCodec{}, refVals)
	// Partition 0 of iteration 1 loads its states in one read, then drains
	// what the other partitions sent it in iteration 0.
	secondDrainRead := opsAt[1+refRes.Partitions] + 1 + 2

	for name, plan := range map[string]storage.FaultPlan{
		"crash":      {Seed: 5, CrashAtOp: secondDrainRead, TornWrites: true},
		"read error": {FailAtOps: []int64{secondDrainRead}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
			g := buildDOSOn(t, fd.Device, edges)
			fd.Arm(plan)
			_, err := newEng(g, dir, false, nil).Run()
			if err == nil || !(errors.Is(err, storage.ErrCrashed) || errors.Is(err, storage.ErrInjected)) ||
				!strings.Contains(err.Error(), "draining messages for partition 0") {
				t.Fatalf("run = %v, want the injected fault under the drain's name", err)
			}
			fd.Disarm()
			reng := newEng(g, dir, true, nil)
			res, err := reng.Run()
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			vals, err := reng.Values()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeStates[witnessVal](witnessCodec{}, vals), refBytes) {
				t.Error("resumed run's state bytes differ from the uninterrupted run's")
			}
			if stripDurability(res) != stripDurability(refRes) {
				t.Errorf("resumed result %+v, uninterrupted %+v", res, refRes)
			}
		})
	}
}
