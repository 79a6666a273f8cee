package extsort

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"graphz/internal/storage"
)

// TestSortLeavesNoTempOnFailure fails each device operation of a
// two-pass sort in turn. Whatever the operation — a read or a spill in
// run formation, a read or a write of either merge pass, a removal — the
// sort succeeds or fails with the injected error, and in both cases no
// file under TempPrefix is left: not a run formed before the failure,
// not an intermediate of the first pass, not the half-written one of the
// group that failed.
func TestSortLeavesNoTempOnFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	vals := make([]uint32, 2*40_000)
	for i := range vals {
		vals[i] = rng.Uint32()
	}
	var st Stats
	sortOn := func(fd *storage.FaultDevice) error {
		return Sort(Config{Dev: fd.Device, RecordSize: 8, Key: u32Key, MemoryBudget: MinMemoryBudget, FanIn: 2, Stats: &st}, "in", "out")
	}
	fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, fd.Device, "in", vals)
	fd.Arm(storage.FaultPlan{})
	if err := sortOn(fd); err != nil {
		t.Fatal(err)
	}
	ops := fd.Ops()
	if st.Runs != 5 || st.MergePasses != 3 {
		t.Fatalf("%d runs merged in %d passes, want 5 in 3", st.Runs, st.MergePasses)
	}
	failed := 0
	for op := int64(1); op <= ops; op++ {
		fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
		writeU32s(t, fd.Device, "in", vals)
		fd.Arm(storage.FaultPlan{FailAtOps: []int64{op}})
		err := sortOn(fd)
		if err != nil {
			failed++
			if !errors.Is(err, storage.ErrInjected) {
				t.Errorf("operation %d failed: Sort's error does not wrap it: %v", op, err)
			}
		}
		for _, name := range fd.List() {
			if strings.HasPrefix(name, "out.run") {
				t.Errorf("operation %d failed (Sort: %v): %v left on the device", op, err, fd.List())
				break
			}
		}
	}
	if failed < int(ops)/2 {
		t.Errorf("%d of %d injected failures failed the sort", failed, ops)
	}
}

// TestSortScratchIsPerSort: the bytes one Sort allocates do not grow with
// the number of runs it forms. The chunk buffers, the radix sort's pair
// arrays and the merge's block buffers are made once and reused for
// every chunk, group and pass; a run costs its name.
func TestSortScratchIsPerSort(t *testing.T) {
	allocated := func(runs int) uint64 {
		dev := storage.NewDevice(storage.NullDevice, storage.Options{})
		rng := rand.New(rand.NewSource(int64(runs)))
		vals := make([]uint32, runs*MinMemoryBudget/4)
		for i := range vals {
			vals[i] = rng.Uint32()
		}
		writeU32s(t, dev, "in", vals)
		dev.ResetStats()
		var st Stats
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Sort(Config{Dev: dev, RecordSize: 4, Key: u32Key, MemoryBudget: MinMemoryBudget, FanIn: 4, Stats: &st}, "in", "out")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if st.Runs != runs {
			t.Fatalf("formed %d runs, want %d", st.Runs, runs)
		}
		// The device's files are host memory too, and every byte the sort
		// writes is a new byte of one (the run size is a whole number of
		// the units the device allocates in): not the sort's scratch.
		return after.TotalAlloc - before.TotalAlloc - uint64(dev.Stats().WriteBytes)
	}
	few, many := allocated(4), allocated(64)
	// 60 more runs and three passes instead of one cost their names and
	// the device's bookkeeping of 80 more files. One chunk's scratch is
	// 10 x 64 KiB, one block buffer 256 KiB.
	if many > few+64<<10 {
		t.Errorf("beside the files it wrote, a sort of 64 runs allocated %d bytes, one of 4 runs %d", many, few)
	}
}
