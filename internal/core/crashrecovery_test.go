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
