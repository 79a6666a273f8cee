package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"graphz/internal/graph"
	"graphz/internal/storage"
)

// The Sio prefetcher's properties hold for every layout it serves and
// every shape of range list the engine hands it, so each test below runs
// over one table: layout × ranges.

// sioTestBlock is the table's block cut, in entries: small, so a handful
// of entries spans many blocks and ranges start and end mid-block.
const sioTestBlock = 8

// sioLayouts are the four ways an edges file maps entries to bytes. A nil
// codec is the fixed-entry form (DOS v1, CSR): no offset table, blocks
// addressed arithmetically.
var sioLayouts = []struct {
	name  string
	codec storage.Codec
}{
	{"fixed-entry", nil},
	{"raw-v2", storage.CodecRaw},
	{"varint", storage.CodecVarint},
	{"groupvarint", storage.CodecGroupVarint},
}

// sioRanges are the range-list shapes: one range, several with gaps (the
// selective schedule), consecutive ranges whose boundary falls inside a
// block (parallel chunks, adjacent runs), and nothing to read at all.
var sioRanges = []struct {
	name   string
	ranges []entryRange
}{
	{"one range", []entryRange{{3, 61}}},
	{"several ranges", []entryRange{{0, 8}, {24, 24}, {26, 41}, {90, 100}}},
	{"ranges sharing a block", []entryRange{{2, 5}, {5, 7}, {9, 20}, {21, 23}, {23, 33}}},
	{"empty range", []entryRange{{5, 5}}},
}

// writeEntryFile writes entries to a device file in the given layout and
// returns the BlockLayout addressing it.
func writeEntryFile(t *testing.T, dev *storage.Device, name string, entries []uint32, codec storage.Codec, blockEntries int64) storage.BlockLayout {
	t.Helper()
	adj := storage.BlockLayout{Codec: storage.CodecRaw, BlockEntries: blockEntries, NumEntries: int64(len(entries))}
	if codec != nil {
		adj.Codec = codec
		adj.BlockOffs = []int64{0}
	}
	var data []byte
	for b := int64(0); b < adj.NumBlocks(); b++ {
		data = adj.Codec.EncodeBlock(data, entries[b*blockEntries:b*blockEntries+adj.EntriesIn(b)])
		if codec != nil {
			adj.BlockOffs = append(adj.BlockOffs, int64(len(data)))
		}
	}
	if err := storage.WriteAll(dev, name, data); err != nil {
		t.Fatal(err)
	}
	return adj
}

// testEntries returns n distinct, non-monotone entry values.
func testEntries(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i*7919) % 100003
	}
	return out
}

// forEachSioCase runs fn once per table cell on a fresh device holding a
// 100-entry file (13 blocks, the last one short), and checks that the
// cell leaves the block pool where it found it.
func forEachSioCase(t *testing.T, newDev func() *storage.Device, fn func(t *testing.T, dev *storage.Device, adj storage.BlockLayout, entries []uint32, ranges []entryRange)) {
	for _, l := range sioLayouts {
		for _, r := range sioRanges {
			t.Run(l.name+"/"+r.name, func(t *testing.T) {
				dev := newDev()
				entries := testEntries(100)
				adj := writeEntryFile(t, dev, "e", entries, l.codec, sioTestBlock)
				before := blockPool.outstanding()
				fn(t, dev, adj, entries, append([]entryRange(nil), r.ranges...))
				if got := blockPool.outstanding(); got != before {
					t.Errorf("%d pooled blocks outstanding after the stream stopped, want %d", got, before)
				}
			})
		}
	}
}

func nullDevice() *storage.Device { return storage.NewDevice(storage.NullDevice, storage.Options{}) }

// wantEntries is the ranges' entries in stream order.
func wantEntries(entries []uint32, ranges []entryRange) []graph.VertexID {
	var want []graph.VertexID
	for _, r := range ranges {
		for _, v := range entries[r.start:r.end] {
			want = append(want, graph.VertexID(v))
		}
	}
	return want
}

// readN drains exactly n entries through a deliberately small, odd-sized
// destination, so reads stop short at block and range boundaries alike.
func readN(src entrySource, n int) ([]graph.VertexID, error) {
	var got []graph.VertexID
	dst := make([]graph.VertexID, 5)
	for len(got) < n {
		m, err := src.read(dst[:min(len(dst), n-len(got))])
		if err != nil {
			return got, err
		}
		got = append(got, dst[:m]...)
	}
	return got, nil
}

func checkEntries(t *testing.T, got, want []graph.VertexID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stream delivered %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestEntryStreamReadsRange: the ranges' entries arrive in order and
// nothing else does; reading past them fails, and the failure sticks.
func TestEntryStreamReadsRange(t *testing.T) {
	forEachSioCase(t, nullDevice, func(t *testing.T, dev *storage.Device, adj storage.BlockLayout, entries []uint32, ranges []entryRange) {
		want := wantEntries(entries, ranges)
		s, err := openEntryStream(dev, adj, "e", ranges, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.stop()
		got, err := readN(s, len(want))
		if err != nil {
			t.Fatal(err)
		}
		checkEntries(t, got, want)
		for i := 0; i < 2; i++ {
			if _, err := s.read(make([]graph.VertexID, 4)); !errors.Is(err, errAdjExhausted) {
				t.Errorf("read %d past the ranges = %v, want errAdjExhausted", i, err)
			}
		}
	})
}

// TestEntryStreamEmptyRange: a stream with nothing to read touches the
// device not at all.
func TestEntryStreamEmptyRange(t *testing.T) {
	for _, l := range sioLayouts {
		dev := nullDevice()
		adj := writeEntryFile(t, dev, "e", testEntries(100), l.codec, sioTestBlock)
		dev.ResetStats()
		for _, ranges := range [][]entryRange{nil, {{5, 5}}, {{9, 9}, {40, 40}}} {
			s, err := openEntryStream(dev, adj, "e", ranges, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.read(make([]graph.VertexID, 4)); !errors.Is(err, errAdjExhausted) {
				t.Errorf("%s %v: read = %v, want errAdjExhausted", l.name, ranges, err)
			}
			s.stop()
		}
		if st := dev.Stats(); st.ReadOps != 0 {
			t.Errorf("%s: empty ranges cost %d device reads", l.name, st.ReadOps)
		}
	}
}

func TestEntryStreamMissingFile(t *testing.T) {
	if _, err := openEntryStream(nullDevice(), storage.RawBlockLayout(1), "missing", []entryRange{{0, 1}}, nil); err == nil {
		t.Error("missing file should fail")
	}
}

// TestEntryStreamDeviceError: a failing device read reaches the consumer
// as that error, once — the producer issues no read after it — and it
// sticks.
func TestEntryStreamDeviceError(t *testing.T) {
	var fd *storage.FaultDevice
	newDev := func() *storage.Device {
		fd = storage.NewFaultDevice(storage.NullDevice, storage.Options{})
		return fd.Device
	}
	forEachSioCase(t, newDev, func(t *testing.T, dev *storage.Device, adj storage.BlockLayout, entries []uint32, ranges []entryRange) {
		want := wantEntries(entries, ranges)
		if len(want) <= sioTestBlock {
			return // a single block read: no second read to fail
		}
		fd.Arm(storage.FaultPlan{FailAtOps: []int64{2}})
		s, err := openEntryStream(dev, adj, "e", ranges, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.stop()
		got, err := readN(s, len(want))
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("read error = %v, want the injected device error", err)
		}
		checkEntries(t, got, want[:len(got)])
		if len(got) == 0 || len(got) >= len(want) {
			t.Errorf("delivered %d of %d entries around a failed second read", len(got), len(want))
		}
		if _, again := s.read(make([]graph.VertexID, 4)); again != err {
			t.Errorf("second read = %v, want the same sticky error", again)
		}
		if ops := fd.Ops(); ops != 2 {
			t.Errorf("%d device ops, want 2: the producer must stop at the failed read", ops)
		}
	})
}

// TestEntryStreamStopMidway: stop() must not deadlock with the producer
// mid-flight.
func TestEntryStreamStopMidway(t *testing.T) {
	forEachSioCase(t, nullDevice, func(t *testing.T, dev *storage.Device, adj storage.BlockLayout, entries []uint32, ranges []entryRange) {
		s, err := openEntryStream(dev, adj, "e", ranges, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantEntries(entries, ranges)) > 0 {
			if _, err := s.read(make([]graph.VertexID, 1)); err != nil {
				t.Fatal(err)
			}
		}
		s.stop()
	})
}

// TestEntryStreamStopRecyclesInFlightBlock: stopping a stream while the
// producer is blocked handing over a block used to leak that block — the
// stop branch returned without putting the in-hand buffer back, so every
// early partition stop (engine errors, parallel-worker chunk sources)
// bled one pooled block. The pool's get/put accounting must balance
// after every stop.
func TestEntryStreamStopRecyclesInFlightBlock(t *testing.T) {
	for _, l := range sioLayouts {
		dev := nullDevice()
		// Many more blocks than the queue holds, so the producer always
		// has an undelivered block in hand when stopped.
		entries := testEntries(32 * sioTestBlock)
		adj := writeEntryFile(t, dev, "e", entries, l.codec, sioTestBlock)
		for i := 0; i < 10; i++ {
			before := blockPool.outstanding()
			gets0 := blockPool.gets.Load()
			s, err := openEntryStream(dev, adj, "e", []entryRange{{0, int64(len(entries))}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Wait until the producer has filled the queue and taken the
			// next block in hand (queue depth + 1 gets), the state the
			// leaky path fired from.
			deadline := time.Now().Add(5 * time.Second)
			for blockPool.gets.Load()-gets0 < sioQueueDepth+1 {
				if time.Now().After(deadline) {
					t.Fatal("producer never filled the prefetch queue")
				}
				runtime.Gosched()
			}
			s.stop()
			if got := blockPool.outstanding(); got != before {
				t.Fatalf("%s iteration %d: %d pooled blocks outstanding after stop, want %d",
					l.name, i, got, before)
			}
		}
	}
}

// TestFixedEntryExtentsClipped: on a fixed-entry (v1) file the prefetcher
// reads exactly the bytes of the requested ranges — ranges that start and
// end mid-block, and two ranges sharing a block, each cost only their own
// entries — in at most one device read per range more than a reader
// cutting blocks from each range's own start would issue.
func TestFixedEntryExtentsClipped(t *testing.T) {
	dev := storage.NewDevice(storage.SSD, storage.Options{})
	const be = storage.DefaultBlockSize / 4
	entries := testEntries(3*be + 100)
	buf := make([]byte, 4*len(entries))
	for i, e := range entries {
		binary.LittleEndian.PutUint32(buf[4*i:], e)
	}
	if err := storage.WriteAll(dev, "e", buf); err != nil {
		t.Fatal(err)
	}
	adj := storage.RawBlockLayout(int64(len(entries)))
	for _, ranges := range [][]entryRange{
		{{100, be + 7}},
		{{100, be + 7}, {be + 7, be + 900}, {be + 901, 2*be + 5}},
		{{be - 1, be + 1}, {2*be + 9, 3*be + 100}},
	} {
		t.Run(fmt.Sprint(ranges), func(t *testing.T) {
			var total, opsFromStart int64
			for _, r := range ranges {
				total += r.end - r.start
				opsFromStart += (r.end - r.start + be - 1) / be
			}
			dev.ResetStats()
			s, err := openEntryStream(dev, adj, "e", append([]entryRange(nil), ranges...), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.stop()
			got, err := readN(s, int(total))
			if err != nil {
				t.Fatal(err)
			}
			checkEntries(t, got, wantEntries(entries, ranges))
			st := dev.Stats()
			if st.ReadBytes != 4*total {
				t.Errorf("device read %d bytes, want exactly 4 x %d entries = %d", st.ReadBytes, total, 4*total)
			}
			if st.ReadOps < opsFromStart || st.ReadOps > opsFromStart+int64(len(ranges)) {
				t.Errorf("%d device reads, want between %d and %d", st.ReadOps, opsFromStart, opsFromStart+int64(len(ranges)))
			}
		})
	}
}

// TestMemEntryStream: the resident source serves the same table of range
// lists over a whole-file entry slice, with the same exhaustion error.
func TestMemEntryStream(t *testing.T) {
	entries := testEntries(100)
	data := make([]graph.VertexID, len(entries))
	for i, v := range entries {
		data[i] = graph.VertexID(v)
	}
	for _, r := range sioRanges {
		ranges := append([]entryRange(nil), r.ranges...)
		want := wantEntries(entries, ranges)
		s := &memEntryStream{data: data, ranges: ranges}
		got, err := readN(s, len(want))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		checkEntries(t, got, want)
		if _, err := s.read(make([]graph.VertexID, 4)); !errors.Is(err, errAdjExhausted) {
			t.Errorf("%s: read past the ranges = %v, want errAdjExhausted", r.name, err)
		}
		s.stop() // no-op, must not panic
	}
}
