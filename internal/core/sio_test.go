package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
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

// sioLayouts are the three ways an edges file maps entries to bytes. A nil
// codec is the fixed-entry form (DOS v1, CSR): no offset table, blocks
// addressed arithmetically.
var sioLayouts = []struct {
	name  string
	codec storage.Codec
}{
	{"fixed-entry", nil},
	{"raw-v2", storage.CodecRaw},
	{"groupvarint", storage.CodecGroupVarint},
}

// sioRanges are the range-list shapes: one range, several with gaps (the
// selective schedule), consecutive ranges whose boundary falls inside a
// block (adjacent runs), and nothing to read at all.
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
				before := pooledOutstanding()
				fn(t, dev, adj, entries, append([]entryRange(nil), r.ranges...))
				if got := pooledOutstanding(); got != before {
					t.Errorf("%d pooled buffers outstanding after the stream stopped, want %d", got, before)
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

// waitProducerBlocked spins until the stream's producer has filled the
// queue and holds the next block in hand, ready to queue — decoded, on a
// bulk stream: sioQueueDepth+1 blocks' worth of buffers drawn from the
// pools since gets0, one per block on a lazy stream (its bytes), two on a
// bulk one (bytes, then entries).
func waitProducerBlocked(t *testing.T, lazy bool, gets0 int64) {
	t.Helper()
	want := int64(2 * (sioQueueDepth + 1))
	if lazy {
		want = sioQueueDepth + 1
	}
	deadline := time.Now().Add(5 * time.Second)
	for pooled.gets.Load()-gets0 < want {
		if time.Now().After(deadline) {
			t.Fatal("producer never filled the prefetch queue")
		}
		runtime.Gosched()
	}
}

// TestEntryStreamStopRecyclesInFlightBlock: stopping a stream while the
// producer is blocked handing over a block used to leak that block — the
// stop branch returned without putting the in-hand buffer back, so every
// early partition stop (an engine error) bled one pooled block. The pools'
// get/put accounting must balance after every stop: with the queue full and a block — a decoded one, on a
// bulk stream — in the producer's hand, and at whatever point of its
// read/decode/queue cycle an immediate stop catches it.
func TestEntryStreamStopRecyclesInFlightBlock(t *testing.T) {
	for _, l := range sioLayouts {
		dev := nullDevice()
		// Many more blocks than the queue holds, so the producer always
		// has an undelivered block in hand when stopped.
		entries := testEntries(32 * sioTestBlock)
		adj := writeEntryFile(t, dev, "e", entries, l.codec, sioTestBlock)
		for i := 0; i < 20; i++ {
			lazy, wait := i&1 == 1, i&2 == 0
			before := pooledOutstanding()
			gets0 := pooled.gets.Load()
			s, err := openEntryStream(dev, adj, "e", []entryRange{{0, int64(len(entries))}}, lazy, nil)
			if err != nil {
				t.Fatal(err)
			}
			if wait {
				waitProducerBlocked(t, lazy, gets0)
			}
			s.stop()
			if got := pooledOutstanding(); got != before {
				t.Fatalf("%s iteration %d (lazy=%v, queue full=%v): %d pooled buffers outstanding after stop, want %d",
					l.name, i, lazy, wait, got, before)
			}
		}
	}
}

// TestEntryStreamBlockErrors: a corrupt encoded block and a failed device
// read in the middle of a stream reach the consumer as typed errors naming
// the block — the same error whether the producer met it (bulk) or the
// consumer's first touch did (lazy) — after every entry before it was
// delivered intact; the error sticks, nothing panics or hangs, and the
// pools balance.
func TestEntryStreamBlockErrors(t *testing.T) {
	const badBlock = 5
	entries := testEntries(12 * sioTestBlock)
	full := []entryRange{{0, int64(len(entries))}}
	for _, tc := range []struct {
		name string
		is   error
		text string
		// breakIt damages the file or arms the device after the file is written.
		breakIt func(t *testing.T, fd *storage.FaultDevice, adj storage.BlockLayout)
	}{
		{"corrupt block", storage.ErrCorruptBlock, fmt.Sprintf("core: decoding block %d: ", badBlock),
			func(t *testing.T, fd *storage.FaultDevice, adj storage.BlockLayout) {
				// A block cut short by one byte, the rest padded with a
				// control byte no encoder writes: undecodable.
				lo, hi := adj.BlockRange(badBlock)
				data, err := storage.ReadAllFile(fd.Device, "e")
				if err != nil {
					t.Fatal(err)
				}
				for i := lo + 1; i < hi; i++ {
					data[i] = 0xFF
				}
				if err := storage.WriteAll(fd.Device, "e", data); err != nil {
					t.Fatal(err)
				}
			}},
		{"device read error", storage.ErrInjected, fmt.Sprintf("core: reading block %d at byte ", badBlock),
			func(t *testing.T, fd *storage.FaultDevice, adj storage.BlockLayout) {
				fd.Arm(storage.FaultPlan{FailAtOps: []int64{badBlock + 1}}) // one read per block
			}},
	} {
		var texts []string
		for _, lazy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lazy=%v", tc.name, lazy), func(t *testing.T) {
				fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
				adj := writeEntryFile(t, fd.Device, "e", entries, storage.CodecGroupVarint, sioTestBlock)
				tc.breakIt(t, fd, adj)
				before := pooledOutstanding()
				s, err := openEntryStream(fd.Device, adj, "e", full, lazy, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := readRanges(s, full)
				if !errors.Is(err, tc.is) || !strings.HasPrefix(err.Error(), tc.text) {
					t.Fatalf("error = %v, want one matching %v and starting %q", err, tc.is, tc.text)
				}
				// Windows are 5 entries, blocks 8: everything up to the last
				// window that ends inside block 4 arrived.
				checkEntries(t, got, wantEntries(entries, []entryRange{{0, int64(len(got))}}))
				if want := badBlock * sioTestBlock / 5 * 5; len(got) != want {
					t.Errorf("delivered %d entries before the bad block, want %d", len(got), want)
				}
				if _, again := s.window(int64(len(got)), 1); again != err {
					t.Errorf("second read = %v, want the same sticky error", again)
				}
				s.stop()
				if got := pooledOutstanding(); got != before {
					t.Errorf("%d pooled buffers outstanding after the stream stopped, want %d", got, before)
				}
				texts = append(texts, err.Error())
			})
		}
		if len(texts) == 2 && texts[0] != texts[1] {
			t.Errorf("%s: bulk says %q, lazy says %q", tc.name, texts[0], texts[1])
		}
	}
}

// TestBulkWindowsAreViews: on a bulk stream a vertex whose entries lie
// inside one block is served as a sub-slice of that block — the flat
// buffer is not even allocated — and only one that straddles a block
// boundary, or is longer than a block, is assembled in it, whole and in
// order.
func TestBulkWindowsAreViews(t *testing.T) {
	for _, l := range sioLayouts {
		t.Run(l.name, func(t *testing.T) {
			dev := nullDevice()
			entries := testEntries(100)
			adj := writeEntryFile(t, dev, "e", entries, l.codec, sioTestBlock)
			before := pooledOutstanding()
			s, err := openEntryStream(dev, adj, "e", []entryRange{{0, 100}}, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			ask := func(off int64, n int) []graph.VertexID {
				t.Helper()
				w, err := s.window(off, n)
				if err != nil {
					t.Fatalf("window(%d, %d): %v", off, n, err)
				}
				if len(w) < n {
					t.Fatalf("window(%d, %d) returned %d entries", off, n, len(w))
				}
				checkEntries(t, w[:n], wantEntries(entries, []entryRange{{off, off + int64(n)}}))
				return w
			}
			// Inside blocks 0 and 1, up to a block's last entry: views.
			for _, v := range []struct {
				off int64
				n   int
			}{{0, 3}, {3, 5}, {8, 8}} {
				w := ask(v.off, v.n)
				if &w[0] != &s.blk.ents[v.off-s.blk.start] {
					t.Errorf("window(%d, %d) is not a view of the current block", v.off, v.n)
				}
				if want := int(s.blk.end - v.off); len(w) != want {
					t.Errorf("window(%d, %d) holds %d entries, want the block's remaining %d", v.off, v.n, len(w), want)
				}
			}
			if s.buf != nil {
				t.Error("in-block windows allocated the flat buffer")
			}
			// 20..26 straddles blocks 2 and 3; 27..51 covers the rest of 3,
			// all of 4 and 5, and the start of 6.
			for _, v := range []struct {
				off int64
				n   int
			}{{20, 7}, {27, 25}} {
				if w := ask(v.off, v.n); len(w) != v.n || &w[0] != &s.buf[0] {
					t.Errorf("window(%d, %d) = %d entries at %p, want exactly %d assembled in the flat buffer", v.off, v.n, len(w), &w[0], v.n)
				}
			}
			// And the next in-block vertex is a view again.
			if w := ask(52, 4); &w[0] != &s.blk.ents[52-s.blk.start] {
				t.Error("the window after a straddler is not a view of the current block")
			}
			// A window may begin inside the last straddler's.
			ask(53, 3)
			s.stop()
			if got := pooledOutstanding(); got != before {
				t.Errorf("%d pooled buffers outstanding after the stream stopped, want %d", got, before)
			}
		})
	}
}

// TestEntryStreamBufferHighWater: a full scan through the Dispatcher stage
// holds no more block-sized buffers at once than the consumer-side decode
// it replaced — there, the queue's 4 blocks, one in each hand, the decode
// buffer and the window: sioQueueDepth+4. Here: the queue's entries, one
// block in the consumer's hand, the flat buffer, and in the producer's
// either bytes and entries (a fixed-entry block being widened) or the
// decode scratch and one of the two — never all three.
func TestEntryStreamBufferHighWater(t *testing.T) {
	for _, l := range sioLayouts {
		t.Run(l.name, func(t *testing.T) {
			dev := nullDevice()
			entries := testEntries(64 * sioTestBlock)
			adj := writeEntryFile(t, dev, "e", entries, l.codec, sioTestBlock)
			full := []entryRange{{0, int64(len(entries))}}
			before, gets0 := pooledOutstanding(), pooled.gets.Load()
			pooled.peak.Store(before)
			s, err := openEntryStream(dev, adj, "e", full, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.stop()
			// Let the pipeline fill, then scan in 5-entry windows, so most
			// blocks end in a straddler and the flat buffer is in use.
			waitProducerBlocked(t, false, gets0)
			got, err := readRanges(s, full)
			if err != nil {
				t.Fatal(err)
			}
			checkEntries(t, got, wantEntries(entries, full))
			peak := pooled.peak.Load() - before
			if !adj.FixedEntries() {
				peak++ // the producer's decode scratch, not pooled
			}
			if peak > sioQueueDepth+4 {
				t.Errorf("high water: %d block-sized buffers, want <= %d", peak, sioQueueDepth+4)
			}
			if peak < sioQueueDepth+2 {
				t.Errorf("high water %d: the queue never filled, the bound was not exercised", peak)
			}
		})
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
// into the next; on a lazy stream, the only kind that hops in production,
// the blocks it hopped over are never decoded, while a bulk stream's
// producer decodes every block it fetches; a hop past the last range is a
// typed error, not a panic; and every pooled buffer is back when the
// stream stops. On every layout, lazy and not.
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
	const fetchedBlocks = 7
	const touchedBlocks = 4 // 0, 2, 6, 7 — not 1, 3 or 8
	for _, l := range sioLayouts {
		for _, lazy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lazy=%v", l.name, lazy), func(t *testing.T) {
				dev := nullDevice()
				entries := testEntries(100)
				adj := writeEntryFile(t, dev, "e", entries, l.codec, sioTestBlock)
				before, ops := pooledOutstanding(), dev.Stats().ReadOps
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
				if got := pooledOutstanding(); got != before {
					t.Errorf("%d pooled buffers outstanding after the stream stopped, want %d", got, before)
				}
				if got := dev.Stats().ReadOps - ops; got != fetchedBlocks {
					t.Errorf("prefetcher read %d blocks, want the ranges' %d", got, fetchedBlocks)
				}
				// Lazy: only the blocks a window touched. Bulk: every block
				// fetched arrives decoded. The codec counters stay zero on a
				// fixed-entry layout.
				decoded := int64(touchedBlocks * sioTestBlock * 4)
				if !lazy {
					decoded = fetchedBlocks * sioTestBlock * 4
				}
				if adj.FixedEntries() {
					decoded = 0
				}
				if got := ps.codecRawB.Load(); got != decoded {
					t.Errorf("decoded %d bytes, want %d (lazy=%v)", got, decoded, lazy)
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
