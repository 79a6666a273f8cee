package graph

import (
	"errors"
	"io"
	"testing"
	"time"

	"graphz/internal/sim"
	"graphz/internal/storage"
)

// stateRoundTrip stores n states at lo of a state file holding total, reads
// them back, and checks the values, the whole file, the device operations
// (one read and one write a DefaultBlockSize block) and the clock's bytes.
func stateRoundTrip[V comparable](t *testing.T, c Codec[V], total, lo, n int, val func(int) V) {
	t.Helper()
	dev := storage.NewDevice(storage.SSD, storage.Options{})
	clock := sim.NewClock()
	s := NewStateFile(dev, "v.vstate", c, clock)
	if _, err := dev.Create(s.Name()); err != nil {
		t.Fatal(err)
	}
	all := make([]V, total)
	buf := make([]byte, total*c.Size())
	if err := s.Store(all, 0, buf); err != nil {
		t.Fatal(err)
	}
	want := make([]V, n)
	for i := range want {
		want[i] = val(i)
		all[lo+i] = want[i]
	}
	bytes := n * c.Size()
	if (lo*c.Size())/storage.DefaultBlockSize == ((lo+n)*c.Size()-1)/storage.DefaultBlockSize {
		t.Fatalf("range [%d,%d) of %d-byte states does not cross a block boundary", lo, lo+n, c.Size())
	}
	ops := int64((bytes + storage.DefaultBlockSize - 1) / storage.DefaultBlockSize)
	dev.ResetStats()
	before := clock.TotalCompute()
	if err := s.Store(want, VertexID(lo), make([]byte, 0, bytes)); err != nil {
		t.Fatal(err)
	}
	got := make([]V, n)
	if err := s.Load(got, VertexID(lo), make([]byte, bytes+5)); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("state %d: loaded %v, stored %v", lo+i, got[i], want[i])
		}
	}
	if st := dev.Stats(); st.ReadOps != ops || st.WriteOps != ops || st.ReadBytes != int64(bytes) || st.WriteBytes != int64(bytes) {
		t.Errorf("device %v, want %d reads and %d writes of %d bytes in all", st, ops, ops, bytes)
	}
	if got, want := clock.TotalCompute()-before, 2*time.Duration(bytes/4)*sim.CostByteCopy4; got != want {
		t.Errorf("clock charged %v, want %v", got, want)
	}
	whole, err := s.ReadAll(total)
	if err != nil {
		t.Fatal(err)
	}
	for i := range whole {
		if whole[i] != all[i] {
			t.Fatalf("ReadAll state %d = %v, want %v", i, whole[i], all[i])
		}
	}
}

// TestStateFileRoundTrip: a range at a non-zero lo that crosses a 256 KiB
// block boundary comes back as stored, for 4-byte and 8-byte states, with
// and without a codec's own bulk form.
func TestStateFileRoundTrip(t *testing.T) {
	t.Run("uint32", func(t *testing.T) {
		stateRoundTrip[uint32](t, Uint32Codec{}, 90_000, 1_001, 70_000, func(i int) uint32 { return uint32(i*7 + 1) })
	})
	t.Run("float64", func(t *testing.T) {
		stateRoundTrip[float64](t, Float64Codec{}, 50_000, 1_001, 40_000, func(i int) float64 { return float64(i) / 3 })
	})
	t.Run("u32pair", func(t *testing.T) {
		stateRoundTrip[U32Pair](t, U32PairCodec, 50_000, 1_001, 40_000, func(i int) U32Pair { return U32Pair{A: uint32(i), B: ^uint32(i)} })
	})
}

// TestStateFileShort: a range past the end of the file, a file of the
// wrong size and a missing file are errors, never panics.
func TestStateFileShort(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	s := NewStateFile[uint32](dev, "v.vstate", Uint32Codec{}, nil)
	if err := s.Load(make([]uint32, 4), 0, make([]byte, 16)); err == nil {
		t.Error("Load of a missing file succeeded")
	}
	if _, err := s.ReadAll(4); err == nil {
		t.Error("ReadAll of a missing file succeeded")
	}
	if err := storage.WriteAll(dev, s.Name(), make([]byte, 10*4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(make([]uint32, 4), 8, make([]byte, 16)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Load of [8,12) from 10 states = %v, want io.ErrUnexpectedEOF", err)
	}
	if err := s.Load(make([]uint32, 4), 20, make([]byte, 16)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Load of [20,24) from 10 states = %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := s.ReadAll(11); err == nil {
		t.Error("ReadAll(11) of 10 states succeeded")
	}
}

// TestExtent: the extent counts every edge and takes the largest ID from
// sources and destinations alike; an empty file's is (0, 0), and a torn
// file is an error.
func TestExtent(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	for _, c := range []struct {
		name  string
		edges []Edge
		max   VertexID
	}{
		{"empty", nil, 0},
		{"max-is-destination", []Edge{{3, 1}, {2, 9}, {7, 0}}, 9},
		{"max-is-source", []Edge{{12, 1}, {2, 9}}, 12},
	} {
		if err := WriteEdges(dev, c.name, c.edges); err != nil {
			t.Fatal(err)
		}
		f, _ := dev.Open(c.name)
		maxID, n, err := Extent(f)
		if err != nil || maxID != c.max || n != int64(len(c.edges)) {
			t.Errorf("%s: Extent = (%d, %d, %v), want (%d, %d, nil)", c.name, maxID, n, err, c.max, len(c.edges))
		}
	}
	if err := storage.WriteAll(dev, "torn", make([]byte, 2*EdgeBytes+3)); err != nil {
		t.Fatal(err)
	}
	f, _ := dev.Open("torn")
	if _, _, err := Extent(f); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Extent of a torn file = %v, want io.ErrUnexpectedEOF", err)
	}
}
