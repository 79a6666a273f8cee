package extsort

import (
	"math/rand"
	"strings"
	"testing"

	"graphz/internal/obs"
	"graphz/internal/storage"
)

// Tests for the Stats report and removal-error surfacing.

// TestSortStatsNoCombine checks the Stats report on a plain multi-pass
// sort: every record read is written, runs and passes as planned.
func TestSortStatsNoCombine(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	rng := rand.New(rand.NewSource(62))
	vals := make([]uint32, 50_000)
	for i := range vals {
		vals[i] = rng.Uint32()
	}
	writeU32s(t, dev, "in", vals)
	var st Stats
	err := Sort(Config{
		Dev:          dev,
		RecordSize:   4,
		Key:          u32Key,
		MemoryBudget: MinMemoryBudget,
		FanIn:        2,
		Stats:        &st,
	}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if st.RecordsIn != int64(len(vals)) || st.RecordsOut != int64(len(vals)) {
		t.Errorf("RecordsIn/Out = %d/%d, want %d/%d", st.RecordsIn, st.RecordsOut, len(vals), len(vals))
	}
	if st.Runs != 4 {
		t.Errorf("Runs = %d, want 4 (64KiB budget over 200KB)", st.Runs)
	}
	if st.MergePasses != 2 {
		t.Errorf("MergePasses = %d, want 2 (4 runs at fan-in 2)", st.MergePasses)
	}
}

// TestSortSingleRunStats: a one-run sort is a straight copy — no merge
// passes, counts still reported.
func TestSortSingleRunStats(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, dev, "in", []uint32{3, 1, 2})
	var st Stats
	err := Sort(Config{Dev: dev, RecordSize: 4, Key: u32Key, Stats: &st}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || st.MergePasses != 0 {
		t.Errorf("Runs/MergePasses = %d/%d, want 1/0", st.Runs, st.MergePasses)
	}
	if st.RecordsIn != 3 || st.RecordsOut != 3 {
		t.Errorf("RecordsIn/Out = %d/%d, want 3/3", st.RecordsIn, st.RecordsOut)
	}
}

// TestSortSurfacesRemoveErrors is the regression test for the dropped
// Device.Remove errors: with every removal failing, Sort must still
// produce a correct output, but the failures must land in
// Stats.RemoveErrors and graphz_remove_errors_total instead of
// disappearing. RemoveInput makes the input file one of the failures.
func TestSortSurfacesRemoveErrors(t *testing.T) {
	fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
	rng := rand.New(rand.NewSource(63))
	vals := make([]uint32, 50_000)
	for i := range vals {
		vals[i] = rng.Uint32()
	}
	writeU32s(t, fd.Device, "in", vals)
	fd.Arm(storage.FaultPlan{FailRemoves: true})

	reg := obs.NewRegistry()
	var st Stats
	err := Sort(Config{
		Dev:          fd.Device,
		RecordSize:   4,
		Key:          u32Key,
		MemoryBudget: MinMemoryBudget,
		FanIn:        2,
		RemoveInput:  true,
		Stats:        &st,
		Obs:          reg,
	}, "in", "out")
	if err != nil {
		t.Fatalf("leaked temp files must not fail the sort: %v", err)
	}
	fd.Disarm()

	got := readU32s(t, fd.Device, "out")
	if len(got) != len(vals) {
		t.Fatalf("output has %d records, want %d", len(got), len(vals))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("output unsorted at %d", i)
		}
	}
	// Every removal failed: the input, each formed run, and each
	// intermediate merge file, counted once each although a temporary's
	// removal is tried twice.
	leaked := int64(0)
	for _, name := range fd.List() {
		if strings.HasPrefix(name, "out.run") {
			leaked++
		}
	}
	if leaked <= int64(st.Runs) || st.RemoveErrors != leaked+1 {
		t.Errorf("RemoveErrors = %d with %d runs, %d temporaries and the input left", st.RemoveErrors, st.Runs, leaked)
	}
	if v := reg.CounterValue("graphz_remove_errors_total"); v != st.RemoveErrors {
		t.Errorf("graphz_remove_errors_total = %d, Stats says %d", v, st.RemoveErrors)
	}
	if !fd.Device.Exists("in") {
		t.Error("input vanished although its removal failed")
	}
}

// TestSortRemoveErrorsNilObs: removal failures with no registry must not
// panic (the obs API is nil-safe) and still count in Stats.
func TestSortRemoveErrorsNilObs(t *testing.T) {
	fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, fd.Device, "in", []uint32{2, 1})
	fd.Arm(storage.FaultPlan{FailRemoves: true})
	var st Stats
	err := Sort(Config{
		Dev: fd.Device, RecordSize: 4, Key: u32Key, RemoveInput: true, Stats: &st,
	}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if st.RemoveErrors == 0 {
		t.Error("RemoveErrors = 0 with every removal failing")
	}
}
