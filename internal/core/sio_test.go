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

// readRanges drains the ranges' entries, in order, through deliberately
// small, odd-sized windows, so requests straddle block boundaries and end
// at range boundaries alike.
func readRanges(src entrySource, ranges []entryRange) ([]graph.VertexID, error) {
	var got []graph.VertexID
	for _, r := range ranges {
		for off := r.start; off < r.end; {
			n := int(min(5, r.end-off))
			w, err := src.window(off, n)
			if err != nil {
				return got, err
			}
			if len(w) < n {
				return got, fmt.Errorf("window(%d, %d) returned %d entries", off, n, len(w))
			}
			got = append(got, w[:n]...)
			off += int64(n)
		}
	}
	return got, nil
}

// pastRanges is an entry offset beyond every table file and range list.
const pastRanges = 4096

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
		s, err := openEntryStream(dev, adj, "e", ranges, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.stop()
		got, err := readRanges(s, ranges)
		if err != nil {
			t.Fatal(err)
		}
		checkEntries(t, got, want)
		for i := 0; i < 2; i++ {
			if _, err := s.window(pastRanges, 1); !errors.Is(err, errAdjExhausted) {
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
			s, err := openEntryStream(dev, adj, "e", ranges, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.window(5, 1); !errors.Is(err, errAdjExhausted) {
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
	if _, err := openEntryStream(nullDevice(), storage.RawBlockLayout(1), "missing", []entryRange{{0, 1}}, false, nil); err == nil {
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
		s, err := openEntryStream(dev, adj, "e", ranges, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.stop()
		got, err := readRanges(s, ranges)
		if !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("read error = %v, want the injected device error", err)
		}
		checkEntries(t, got, want[:len(got)])
		if len(got) == 0 || len(got) >= len(want) {
			t.Errorf("delivered %d of %d entries around a failed second read", len(got), len(want))
		}
		if _, again := s.window(pastRanges, 1); again != err {
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
		s, err := openEntryStream(dev, adj, "e", ranges, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantEntries(entries, ranges)) > 0 {
			if _, err := s.window(ranges[0].start, 1); err != nil {
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
			s, err := openEntryStream(dev, adj, "e", []entryRange{{0, int64(len(entries))}}, false, nil)
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
			s, err := openEntryStream(dev, adj, "e", append([]entryRange(nil), ranges...), false, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.stop()
			got, err := readRanges(s, ranges)
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

// TestEntryStreamSeeks: a consumer that hops — the sparse schedule's
// Worker — gets the entries it asks for and pays for nothing else. It
// skips the rest of a block, a whole block, and the tail of one range
// into the next; the blocks it hopped over are never decoded; a hop past
// the last range is a typed error, not a panic; and every pooled block is
// back when the stream stops. On every layout, lazy and not.
func TestEntryStreamSeeks(t *testing.T) {
	ranges := []entryRange{{3, 30}, {50, 70}} // blocks 0-3 and 6-8 of 8 entries
	hops := []struct {
		off int64
		n   int
	}{
		{3, 2},  // block 0
		{20, 4}, // past the rest of block 0 and the whole of block 1
		{52, 3}, // across the range boundary: block 3 is never looked at
		{55, 6}, // straddles blocks 6 and 7
	}
	const decodedBlocks = 4 // 0, 2, 6, 7 — not 1, 3 or 8
	for _, l := range sioLayouts {
		for _, lazy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lazy=%v", l.name, lazy), func(t *testing.T) {
				dev := nullDevice()
				entries := testEntries(100)
				adj := writeEntryFile(t, dev, "e", entries, l.codec, sioTestBlock)
				before := blockPool.outstanding()
				ps := &pipeStats{}
				s, err := openEntryStream(dev, adj, "e", append([]entryRange(nil), ranges...), lazy, ps)
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range hops {
					w, err := s.window(h.off, h.n)
					if err != nil {
						t.Fatalf("window(%d, %d): %v", h.off, h.n, err)
					}
					if len(w) < h.n || (lazy && len(w) != h.n) {
						t.Fatalf("window(%d, %d) returned %d entries (lazy=%v)", h.off, h.n, len(w), lazy)
					}
					checkEntries(t, w[:h.n], wantEntries(entries, []entryRange{{h.off, h.off + int64(h.n)}}))
				}
				// Entry 40 lies between the ranges, but the stream is already
				// past it; 75 lies beyond the last block any range needs.
				if _, err := s.window(75, 1); !errors.Is(err, errAdjExhausted) {
					t.Errorf("window past the last range = %v, want errAdjExhausted", err)
				}
				s.stop()
				if got := blockPool.outstanding(); got != before {
					t.Errorf("%d pooled blocks outstanding after the stream stopped, want %d", got, before)
				}
				if got := ps.blocks.Load(); got != 7 {
					t.Errorf("prefetcher read %d blocks, want the ranges' 7", got)
				}
				// The codec counters stay zero on a fixed-entry layout.
				want := int64(decodedBlocks * sioTestBlock * 4)
				if adj.FixedEntries() {
					want = 0
				}
				if got := ps.codecRawB.Load(); got != want {
					t.Errorf("decoded %d bytes, want %d: only the %d blocks a window touched", got, want, decodedBlocks)
				}
			})
		}
	}
	// A hop into the gap between two ranges, from before it, is the same
	// typed error: nothing there was scheduled.
	dev := nullDevice()
	adj := writeEntryFile(t, dev, "e", testEntries(100), nil, sioTestBlock)
	s, err := openEntryStream(dev, adj, "e", append([]entryRange(nil), ranges...), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	if _, err := s.window(40, 1); !errors.Is(err, errAdjExhausted) {
		t.Errorf("window between the ranges = %v, want errAdjExhausted", err)
	}
}

// TestMemEntryStream: the resident source serves the same table of range
// lists out of a whole-file entry slice — as sub-slices of it, not copies
// — with the same exhaustion error.
func TestMemEntryStream(t *testing.T) {
	entries := testEntries(100)
	data := make([]graph.VertexID, len(entries))
	for i, v := range entries {
		data[i] = graph.VertexID(v)
	}
	s := &memEntryStream{data: data}
	for _, r := range sioRanges {
		got, err := readRanges(s, r.ranges)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		checkEntries(t, got, wantEntries(entries, r.ranges))
	}
	if w, err := s.window(7, 3); err != nil || &w[0] != &data[7] {
		t.Errorf("window(7, 3) = (%p, %v), want a view of the resident entries at %p", w, err, &data[7])
	}
	if _, err := s.window(98, 3); !errors.Is(err, errAdjExhausted) {
		t.Errorf("read past the entries = %v, want errAdjExhausted", err)
	}
	s.stop() // no-op, must not panic
}
