package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
)

// A checkpoint an older engine wrote resumes to today's uninterrupted run.
// (Runs killed at drawn points and resumed are the two oracles' to hold.)

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
	opts := partitionedOpts(g)
	refRes, refVals := runMinLabel(t, g, opts)

	// Resume from a copy: the resumed run checkpoints where it resumes from.
	src, dir := "testdata/ckpt-parent-b279982/"+ckptDirName(2), t.TempDir()
	must(t, os.Mkdir(filepath.Join(dir, ckptDirName(2)), 0o755))
	files, err := filepath.Glob(src + "/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("%d fixture files under %s: %v", len(files), src, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, ckptDirName(2), filepath.Base(f)), data, 0o644)
		}
		must(t, err)
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
	if !bytes.Equal(encodeStates[minVal](graph.U32PairCodec, vals), encodeStates[minVal](graph.U32PairCodec, refVals)) {
		t.Error("resumed run's state bytes differ from the uninterrupted run's")
	}
}
