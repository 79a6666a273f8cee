package extsort

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"graphz/internal/sim"
	"graphz/internal/storage"
)

func u32Key(rec []byte) uint64 { return uint64(binary.LittleEndian.Uint32(rec)) }

func writeU32s(t *testing.T, dev *storage.Device, name string, vals []uint32) {
	t.Helper()
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	if err := storage.WriteAll(dev, name, buf); err != nil {
		t.Fatal(err)
	}
}

func readU32s(t *testing.T, dev *storage.Device, name string) []uint32 {
	t.Helper()
	data, err := storage.ReadAllFile(dev, name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, len(data)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(data[4*i:])
	}
	return out
}

func sortU32File(t *testing.T, dev *storage.Device, budget int64, in, out string) {
	t.Helper()
	err := Sort(Config{
		Dev:          dev,
		RecordSize:   4,
		Key:          u32Key,
		MemoryBudget: budget,
	}, in, out)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSortSmall(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, dev, "in", []uint32{5, 3, 9, 1, 1, 7})
	sortU32File(t, dev, 0, "in", "out")
	got := readU32s(t, dev, "out")
	want := []uint32{1, 1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSortEmpty(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, dev, "in", nil)
	sortU32File(t, dev, 0, "in", "out")
	if got := readU32s(t, dev, "out"); len(got) != 0 {
		t.Errorf("got %v, want empty", got)
	}
}

func TestSortSingleRecord(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, dev, "in", []uint32{42})
	sortU32File(t, dev, 0, "in", "out")
	got := readU32s(t, dev, "out")
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("got %v", got)
	}
}

// TestSortManyRuns forces a tiny memory budget so run formation, multi-run
// merging, and (with tiny fan-in) multi-pass merging are all exercised.
func TestSortManyRunsMultiPass(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	rng := rand.New(rand.NewSource(7))
	n := 50_000
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Uint32()
	}
	writeU32s(t, dev, "in", vals)
	err := Sort(Config{
		Dev:          dev,
		RecordSize:   4,
		Key:          u32Key,
		MemoryBudget: MinMemoryBudget, // 64KB -> 16k records per run -> 4 runs
		FanIn:        2,               // force multiple merge passes
	}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	got := readU32s(t, dev, "out")
	want := append([]uint32(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: got %d, want %d", i, got[i], want[i])
		}
	}
	// Temp runs must be cleaned up.
	for _, name := range dev.List() {
		if name != "in" && name != "out" {
			t.Errorf("leftover temp file %q", name)
		}
	}
}

// TestSortProperty: output is sorted and is a permutation of the input,
// for arbitrary inputs and budgets.
func TestSortProperty(t *testing.T) {
	check := func(vals []uint32, budgetSeed uint8) bool {
		dev := storage.NewDevice(storage.NullDevice, storage.Options{})
		buf := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(buf[4*i:], v)
		}
		if err := storage.WriteAll(dev, "in", buf); err != nil {
			return false
		}
		err := Sort(Config{
			Dev:          dev,
			RecordSize:   4,
			Key:          u32Key,
			MemoryBudget: int64(budgetSeed),
			FanIn:        2 + int(budgetSeed)%5,
		}, "in", "out")
		if err != nil {
			return false
		}
		data, err := storage.ReadAllFile(dev, "out")
		if err != nil || len(data) != len(buf) {
			return false
		}
		got := make([]uint32, len(vals))
		for i := range got {
			got[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		want := append([]uint32(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSortStability(t *testing.T) {
	// Records are (key, payload); sort by key only and verify payloads
	// of equal keys preserve input order.
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	type rec struct{ k, p uint32 }
	recs := []rec{{2, 0}, {1, 1}, {2, 2}, {1, 3}, {2, 4}, {1, 5}}
	buf := make([]byte, 8*len(recs))
	for i, r := range recs {
		binary.LittleEndian.PutUint32(buf[8*i:], r.k)
		binary.LittleEndian.PutUint32(buf[8*i+4:], r.p)
	}
	if err := storage.WriteAll(dev, "in", buf); err != nil {
		t.Fatal(err)
	}
	err := Sort(Config{
		Dev:        dev,
		RecordSize: 8,
		Key:        u32Key, // the first 4 bytes
		// Force one record per run so stability depends on the
		// merge tie-break.
		MemoryBudget: 1,
		FanIn:        2,
	}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := storage.ReadAllFile(dev, "out")
	var got []rec
	for i := 0; i < len(data); i += 8 {
		got = append(got, rec{
			binary.LittleEndian.Uint32(data[i:]),
			binary.LittleEndian.Uint32(data[i+4:]),
		})
	}
	want := []rec{{1, 1}, {1, 3}, {1, 5}, {2, 0}, {2, 2}, {2, 4}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stability violated: got %v, want %v", got, want)
		}
	}
}

func TestSortErrors(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, dev, "in", []uint32{1})
	base := Config{Dev: dev, RecordSize: 4, Key: u32Key}

	cfg := base
	cfg.RecordSize = 0
	if err := Sort(cfg, "in", "out"); err == nil {
		t.Error("zero record size should fail")
	}
	cfg = base
	cfg.Key = nil
	if err := Sort(cfg, "in", "out"); err == nil {
		t.Error("nil Key should fail")
	}
	if err := Sort(base, "in", "in"); err == nil {
		t.Error("in-place sort should fail")
	}
	if err := Sort(base, "missing", "out"); err == nil {
		t.Error("missing input should fail")
	}
	// Torn input: size not a multiple of record size.
	if err := storage.WriteAll(dev, "torn", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := Sort(base, "torn", "out"); err == nil {
		t.Error("torn input should fail")
	}
}

func TestSortChargesCompute(t *testing.T) {
	clock := sim.NewClock()
	dev := storage.NewDevice(storage.SSD, storage.Options{Clock: clock})
	vals := make([]uint32, 10_000)
	for i := range vals {
		vals[i] = uint32(len(vals) - i)
	}
	writeU32s(t, dev, "in", vals)
	err := Sort(Config{
		Dev: dev, Clock: clock, RecordSize: 4, Key: u32Key,
	}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if clock.TotalCompute() == 0 {
		t.Error("sort charged no compute time")
	}
	if clock.TotalIO() == 0 {
		t.Error("sort charged no IO time")
	}
}

func TestRemoveInput(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, dev, "in", []uint32{3, 1, 2})
	err := Sort(Config{
		Dev: dev, RecordSize: 4, Key: u32Key, RemoveInput: true,
	}, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if dev.Exists("in") {
		t.Error("input should be removed after run formation")
	}
	if got := readU32s(t, dev, "out"); len(got) != 3 || got[0] != 1 {
		t.Errorf("output wrong: %v", got)
	}
}
