package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"graphz/internal/graph"
	"graphz/internal/storage"
)

// blockPool recycles Sio prefetch buffers; the repro environment's note
// about Go GC pressure on edge buffers is real — per-block allocations
// across every partition of every iteration would churn hundreds of MB.
// The pool counts gets and puts so tests can assert that no code path
// loses a buffer (one atomic add per 256 KiB block is noise).
var blockPool = &countedPool{
	pool: sync.Pool{New: func() any { return make([]byte, storage.DefaultBlockSize) }},
}

// countedPool wraps sync.Pool with get/put accounting.
type countedPool struct {
	pool       sync.Pool
	gets, puts atomic.Int64
}

// Get checks out a buffer of exactly n bytes. Fixed-entry blocks and
// nearly every encoded block fit the pooled DefaultBlockSize; an encoded
// block past it (the varint worst case is 5 bytes per entry) gets a grown
// buffer, which re-enters the pool on Put.
func (p *countedPool) Get(n int) []byte {
	p.gets.Add(1)
	buf := p.pool.Get().([]byte)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	return buf[:n]
}

func (p *countedPool) Put(buf []byte) {
	p.puts.Add(1)
	p.pool.Put(buf[:cap(buf)]) //nolint:staticcheck // slice header reuse is intended
}

// outstanding returns how many buffers are currently checked out; once
// every stream is stopped it must be back to its starting value.
func (p *countedPool) outstanding() int64 { return p.gets.Load() - p.puts.Load() }

// windowPool recycles the flat buffers entry streams assemble their
// windows in, one Sio block's worth of entries each (a vertex with more
// entries than that grows its stream's buffer, which re-enters the pool).
var windowPool = sync.Pool{New: func() any { return make([]graph.VertexID, 0, workerBatchEntries) }}

// entrySource is where the Worker's adjacency entries come from: the Sio
// prefetcher (entryStream) or the resident adjacency (memEntryStream).
// Entries are addressed by absolute offset in the edges file, so asking
// for one vertex's span is also the seek past everything before it.
//
// window returns the entries from offset off on — w[0] is entry off, and
// len(w) is at least n, usually more: whatever the source holds decoded
// beyond them. off must not precede the previous call's, the entries must
// be ones the source was opened over, and w is valid until the next call
// and must not be written. window may block on the prefetcher; asking for
// entries beyond the source's last fails with errAdjExhausted. stop
// releases the source and must be called exactly once.
type entrySource interface {
	window(off int64, n int) ([]graph.VertexID, error)
	stop()
}

var errAdjExhausted = errors.New("core: adjacency stream exhausted early")

// entryRange is one contiguous edge-entry range [start, end) of the
// adjacency file, in entries.
type entryRange struct {
	start, end int64
}

// entryStream is the Sio + Dispatcher pair of the paper's runtime
// (Section V-A), for every layout: a prefetch goroutine reads the
// adjacency blocks the ranges need sequentially off the device and hands
// them to the consumer through a bounded queue, so IO overlaps the
// Worker's computation; the consumer (the Dispatcher's job) turns blocks
// into entries, served by absolute entry offset out of one flat buffer. A
// block the consumer hops over is dropped as received, undecoded.
//
// storage.BlockLayout is where entry offsets meet bytes. A block-encoded
// file (DOS v2) is fetched whole block by whole block — blocks no range
// touches are never read, which is selective scheduling's skip math
// landing as byte extents — a block two consecutive ranges share is
// read once, and a block is decoded whole the first time a window reaches
// into it. A fixed-entry file (DOS v1, CSR) is the same pipeline with
// codec 0: its blocks are addressed arithmetically, so each read is
// clipped to the requesting range and not one byte outside a range is
// read, and its entries go from the block's bytes straight into the
// window, only the ones a window takes.
type entryStream struct {
	blocks chan sioBlock
	stopc  chan struct{}
	adj    storage.BlockLayout
	ranges []entryRange
	lazy   bool       // a window fetches the n entries asked for, not all its block holds
	met    *pipeStats // nil-able: the pipeline's timing and stall counters

	// consumer state
	blk    sioBlock         // the block being served: entries [blk.start, blk.end)
	dec    []uint32         // an encoded blk, decoded; a fixed-entry blk is served from blk.data
	buf    []graph.VertexID // the window: entries [bufOff, bufOff+len(buf)); pooled
	bufOff int64
	err    error
}

type sioBlock struct {
	data       []byte
	idx        int64 // block index
	start, end int64 // absolute entry span the bytes decode to
	err        error
}

// openEntryStream starts the prefetcher over the given ascending, disjoint
// entry ranges of the named adjacency file; the bytes between ranges are
// never touched (a seek replaces the skipped blocks' reads). A single
// full range is the seed prefetcher. lazy is for the consumer that hops —
// a sparse schedule's Worker: each window then decodes only the entries
// it was asked for instead of everything its block holds.
func openEntryStream(dev *storage.Device, adj storage.BlockLayout, file string, ranges []entryRange, lazy bool, met *pipeStats) (*entryStream, error) {
	f, err := dev.Open(file)
	if err != nil {
		return nil, err
	}
	s := &entryStream{
		blocks: make(chan sioBlock, sioQueueDepth),
		stopc:  make(chan struct{}),
		adj:    adj,
		ranges: ranges,
		lazy:   lazy,
		met:    met,
	}
	go s.prefetch(f)
	return s, nil
}

// prefetch is the Sio goroutine — the only code in the package that
// reads the edges file.
func (s *entryStream) prefetch(f *storage.File) {
	defer close(s.blocks)
	be := s.adj.BlockEntries
	have := int64(0) // entries below this offset are already fetched
	for _, rng := range s.ranges {
		if rng.end <= rng.start {
			continue
		}
		for b := rng.start / be; b <= (rng.end-1)/be; b++ {
			first, last := b*be, b*be+s.adj.EntriesIn(b)
			lo, hi := s.adj.BlockRange(b)
			if s.adj.FixedEntries() {
				first, last = max(first, rng.start), min(last, rng.end)
				lo, hi = first*4, last*4
			} else if last <= have {
				continue // consecutive ranges share this encoded block
			}
			have = last
			buf := blockPool.Get(int(hi - lo))
			var t0 time.Time
			if s.met != nil {
				t0 = time.Now()
			}
			err := readExtent(f, buf, lo)
			if s.met != nil {
				s.met.readNS.Add(int64(time.Since(t0)))
			}
			if err != nil {
				blockPool.Put(buf)
				select {
				case s.blocks <- sioBlock{err: fmt.Errorf("core: reading block %d at byte %d: %w", b, lo, err)}:
				case <-s.stopc:
				}
				return
			}
			if s.met != nil {
				s.met.blocks.Add(1)
				s.met.heatRead(b, hi-lo)
			}
			select {
			case s.blocks <- sioBlock{data: buf, idx: b, start: first, end: last}:
			case <-s.stopc:
				// Early stop with the block still in hand: ownership
				// never transferred, so recycle it here or it is lost
				// to the GC.
				blockPool.Put(buf)
				return
			}
		}
	}
}

// readExtent fills buf from file offset off in device-block-sized
// operations, so op counts reflect realistic request sizes even for an
// encoded block larger than DefaultBlockSize.
func readExtent(f *storage.File, buf []byte, off int64) error {
	for done := 0; done < len(buf); {
		n, err := f.ReadAt(buf[done:min(len(buf), done+storage.DefaultBlockSize)], off+int64(done))
		if err != nil {
			return err
		}
		if n == 0 {
			return io.ErrUnexpectedEOF
		}
		done += n
	}
	return nil
}

// window serves entries from offset off on out of the stream's flat
// buffer: what is already buffered from off on is kept, everything before
// it — buffered, or in blocks not yet received — is dropped unread, and
// the buffer is topped up to at least n entries from the blocks that
// follow. A failure sticks.
func (s *entryStream) window(off int64, n int) ([]graph.VertexID, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.err = s.fill(off, n); s.err != nil {
		return nil, s.err
	}
	return s.buf, nil
}

func (s *entryStream) fill(off int64, n int) error {
	switch have := s.bufOff + int64(len(s.buf)); {
	case off < s.bufOff:
		return fmt.Errorf("core: adjacency stream asked for entry %d after entry %d", off, s.bufOff)
	case off < have:
		s.buf = s.buf[:copy(s.buf, s.buf[off-s.bufOff:])]
	default:
		s.buf = s.buf[:0]
	}
	s.bufOff = off
	if s.buf == nil {
		s.buf = windowPool.Get().([]graph.VertexID)
	}
	if n > cap(s.buf) {
		grown := make([]graph.VertexID, len(s.buf), max(n, 2*cap(s.buf)))
		copy(grown, s.buf)
		windowPool.Put(s.buf[:0]) //nolint:staticcheck // slice header reuse is intended
		s.buf = grown
	}
	for len(s.buf) < n {
		next := off + int64(len(s.buf)) // the first entry not yet buffered
		if next >= s.blk.end {
			if err := s.advance(next); err != nil {
				return err
			}
		}
		room := cap(s.buf)
		if s.lazy {
			room = n
		}
		take := min(room-len(s.buf), int(s.blk.end-next))
		dst := s.buf[len(s.buf) : len(s.buf)+take]
		if s.adj.FixedEntries() {
			// Straight from the block bytes: only the entries taken are
			// ever decoded. A lazy take is one vertex's few entries —
			// reading the clock twice would cost many times what it
			// measures — so only bulk takes are timed as dispatch.
			timed := s.met != nil && !s.lazy
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			src := s.blk.data[4*(next-s.blk.start):]
			for i := range dst {
				dst[i] = graph.VertexID(binary.LittleEndian.Uint32(src))
				src = src[4:]
			}
			if timed {
				s.met.dispatchNS.Add(int64(time.Since(t0)))
			}
		} else {
			for i, v := range s.dec[next-s.blk.start:][:take] {
				dst[i] = graph.VertexID(v)
			}
		}
		s.buf = s.buf[:len(s.buf)+take]
	}
	return nil
}

// advance makes the block holding entry off the current one. The producer
// emits exactly the blocks the ranges need, in ascending order; the ones
// that end at or before off are blocks the consumer hopped over, and go
// back to the pool undecoded.
func (s *entryStream) advance(off int64) error {
	for {
		s.release()
		blk, ok := s.recv()
		if !ok {
			return errAdjExhausted
		}
		if blk.err != nil {
			return blk.err
		}
		s.blk = blk
		if blk.end > off {
			break
		}
	}
	if off < s.blk.start {
		return fmt.Errorf("%w: entry %d is outside the stream's ranges (block %d follows with [%d,%d))",
			errAdjExhausted, off, s.blk.idx, s.blk.start, s.blk.end)
	}
	if s.adj.FixedEntries() {
		if want := 4 * (s.blk.end - s.blk.start); int64(len(s.blk.data)) != want {
			return fmt.Errorf("core: block %d holds %d bytes, want %d", s.blk.idx, len(s.blk.data), want)
		}
		return nil
	}
	return s.decode()
}

// release returns the current block's bytes to the pool.
func (s *entryStream) release() {
	if s.blk.data != nil {
		blockPool.Put(s.blk.data)
		s.blk.data = nil
	}
}

// decode decodes the current (encoded) block — the Dispatcher step — and
// releases its bytes.
func (s *entryStream) decode() error {
	blk := s.blk
	if s.dec == nil {
		// One decode buffer per stream, sized for a whole block up front:
		// codecs append entry by entry, and growing by doubling would cost
		// a dozen allocations and twice the bytes on every stream.
		s.dec = make([]uint32, 0, s.adj.EntriesIn(blk.idx))
	}
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	dec, err := s.adj.Codec.DecodeBlock(s.dec[:0], blk.data)
	if s.met != nil {
		// The codec counters are a contract about encoded layouts: they
		// stay zero where entry offsets are byte arithmetic.
		ns := int64(time.Since(t0))
		s.met.dispatchNS.Add(ns)
		s.met.decodeNS.Add(ns)
		s.met.codecEncB.Add(int64(len(blk.data)))
		s.met.codecRawB.Add(int64(len(dec)) * 4)
		s.met.heatDecode(blk.idx, ns)
	}
	s.release()
	if err != nil {
		return fmt.Errorf("core: decoding block %d: %w", blk.idx, err)
	}
	if int64(len(dec)) != blk.end-blk.start {
		return fmt.Errorf("core: block %d decodes to %d entries, want %d", blk.idx, len(dec), blk.end-blk.start)
	}
	s.dec = dec
	return nil
}

// recv receives the next prefetched block, counting a stall (and its
// duration) whenever the consumer finds the queue empty and has to wait
// for the Sio producer.
func (s *entryStream) recv() (sioBlock, bool) {
	select {
	case blk, ok := <-s.blocks:
		return blk, ok
	default:
	}
	t0 := time.Now()
	blk, ok := <-s.blocks
	if ok && s.met != nil {
		s.met.stalls.Add(1)
		s.met.stallNS.Add(int64(time.Since(t0)))
	}
	return blk, ok
}

// stop shuts the prefetcher down, releasing the block in hand, the queued
// ones and the window buffer back to their pools.
func (s *entryStream) stop() {
	close(s.stopc)
	s.release()
	for blk := range s.blocks {
		if blk.data != nil {
			blockPool.Put(blk.data)
		}
	}
	if s.buf != nil {
		windowPool.Put(s.buf[:0]) //nolint:staticcheck // slice header reuse is intended
		s.buf = nil
	}
}

// memEntryStream is the resident source: the whole-file decoded
// adjacency, handed out as sub-slices — nothing is copied and nothing is
// skipped over. It holds no cursor, so concurrent Workers share one.
type memEntryStream struct {
	data []graph.VertexID
}

func (s *memEntryStream) window(off int64, n int) ([]graph.VertexID, error) {
	if off < 0 || off+int64(n) > int64(len(s.data)) {
		return nil, fmt.Errorf("%w: entries [%d,%d) of %d resident", errAdjExhausted, off, off+int64(n), len(s.data))
	}
	return s.data[off:], nil
}

func (s *memEntryStream) stop() {}
