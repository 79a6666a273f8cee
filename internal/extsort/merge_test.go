package extsort

import (
	"slices"
	"strings"
	"testing"

	"graphz/internal/storage"
)

// Unit tests of the k-way merge (mergeGroup) behind Sort's merge passes.

// mergeFiles merges the named runs into dst the way one group of a merge
// pass is merged.
func mergeFiles(cfg Config, group []string, dst string) (int64, error) {
	k := len(group)
	s := &sorter{cfg: cfg, readers: make([]storage.Reader, k), recs: make([][]byte, k), tree: make([]entry, 2*k)}
	return s.mergeGroup(group, dst, false)
}

// TestMergerBasic: three sorted runs and an empty one merge into one
// ascending stream; the empty run contributes nothing.
func TestMergerBasic(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, dev, "r0", []uint32{1, 4, 7})
	writeU32s(t, dev, "r1", []uint32{2, 5, 8})
	writeU32s(t, dev, "r2", nil)
	writeU32s(t, dev, "r3", []uint32{3, 6, 9})
	n, err := mergeFiles(Config{Dev: dev, RecordSize: 4, Key: u32Key}, []string{"r0", "r1", "r2", "r3"}, "out")
	if err != nil {
		t.Fatal(err)
	}
	got := readU32s(t, dev, "out")
	if n != 9 || len(got) != 9 {
		t.Fatalf("merged %d records (%v), want 9", n, got)
	}
	for i, v := range got {
		if v != uint32(i+1) {
			t.Fatalf("merge order %v", got)
		}
	}
}

// TestMergerStability: equal keys leave the merge in run order — what
// keeps a multi-run Sort stable.
func TestMergerStability(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	writeU32s(t, dev, "r0", []uint32{1, 10, 2, 11})
	writeU32s(t, dev, "r1", []uint32{1, 20, 2, 21})
	writeU32s(t, dev, "r2", []uint32{1, 30, 2, 31})
	if _, err := mergeFiles(Config{Dev: dev, RecordSize: 8, Key: u32Key}, []string{"r0", "r1", "r2"}, "out"); err != nil {
		t.Fatal(err)
	}
	got := readU32s(t, dev, "out")
	want := []uint32{1, 10, 1, 20, 1, 30, 2, 11, 2, 21, 2, 31}
	if !slices.Equal(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}

// TestMergerErrors: a missing run and a torn run (not a whole number of
// records) fail the merge by name, at priming and mid-merge.
func TestMergerErrors(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	cfg := Config{Dev: dev, RecordSize: 4, Key: u32Key}
	writeU32s(t, dev, "ok", []uint32{1, 2})
	if _, err := mergeFiles(cfg, []string{"ok", "missing"}, "out"); err == nil || !strings.Contains(err.Error(), `"missing"`) {
		t.Errorf("missing run: err = %v", err)
	}
	if err := storage.WriteAll(dev, "torn0", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := mergeFiles(cfg, []string{"ok", "torn0"}, "out"); err == nil || !strings.Contains(err.Error(), `"torn0"`) {
		t.Errorf("run torn at its first record: err = %v", err)
	}
	if err := storage.WriteAll(dev, "torn1", []byte{1, 0, 0, 0, 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := mergeFiles(cfg, []string{"ok", "torn1"}, "out"); err == nil || !strings.Contains(err.Error(), `"torn1"`) {
		t.Errorf("run torn mid-merge: err = %v", err)
	}
}
