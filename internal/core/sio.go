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

// blockPool recycles the byte buffers Sio reads blocks into, entryPool the
// entry buffers they are decoded into (and the flat buffers windows are
// assembled in); the repro environment's note about Go GC pressure on edge
// buffers is real — per-block allocations across every partition of every
// iteration would churn hundreds of MB. Both hold one Sio block each: a
// larger request (an encoded block past DefaultBlockSize — group-varint's
// worst case is 4¼ bytes per entry plus a count, storage.MaxEncodedLen —
// or a vertex with more entries than a block) gets a grown buffer, which
// re-enters the pool on Put.
var (
	blockPool = newBufferPool[byte](storage.DefaultBlockSize)
	entryPool = newBufferPool[graph.VertexID](workerBatchEntries)
)

// pooled counts the buffers checked out of the two pools together, so
// tests can assert that no code path loses one and bound how many a
// stream holds at once (a few atomic operations per 256 KiB block is
// noise).
var pooled struct {
	gets, puts atomic.Int64
	peak       atomic.Int64 // high-water mark of gets - puts
}

// pooledOutstanding returns how many pooled buffers are currently checked
// out; once every stream is stopped it must be back to its starting value.
func pooledOutstanding() int64 { return pooled.gets.Load() - pooled.puts.Load() }

// bufferPool is a sync.Pool of []T buffers that reports to pooled.
type bufferPool[T any] struct{ pool sync.Pool }

func newBufferPool[T any](size int) *bufferPool[T] {
	return &bufferPool[T]{pool: sync.Pool{New: func() any { return make([]T, size) }}}
}

// Get checks out a buffer of exactly n elements.
func (p *bufferPool[T]) Get(n int) []T {
	out := pooled.gets.Add(1) - pooled.puts.Load()
	for pk := pooled.peak.Load(); out > pk && !pooled.peak.CompareAndSwap(pk, out); pk = pooled.peak.Load() {
	}
	buf := p.pool.Get().([]T)
	if cap(buf) < n {
		buf = make([]T, n)
	}
	return buf[:n]
}

func (p *bufferPool[T]) Put(buf []T) {
	pooled.puts.Add(1)
	p.pool.Put(buf[:cap(buf)]) //nolint:staticcheck // slice header reuse is intended
}

// entrySource is where the Worker's adjacency entries come from: the Sio
// prefetcher (entryStream) or the resident adjacency (memEntryStream).
// Entries are addressed by absolute offset in the edges file, so asking
// for one vertex's span is also the seek past everything before it.
//
// window returns the entries from offset off on — w[0] is entry off, and
// len(w) is at least n, usually more: whatever the source holds decoded
// beyond them. off must not precede the end of the previous call's n
// entries, the entries must be ones the source was opened over, and w is
// valid until the next call and must not be written. window may block on
// the prefetcher; asking for entries beyond the source's last fails with
// errAdjExhausted. stop releases the source and must be called exactly
// once.
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
// adjacency blocks the ranges need sequentially off the device, turns each
// block's bytes into its entries — the Dispatcher's job — and hands them
// to the consumer through a bounded queue, so IO and decode overlap the
// Worker's computation, as the paper's concurrent stages do. Windows of
// entries are served by absolute entry offset: a window is a sub-slice of
// the current block, and only a request that straddles two blocks is
// assembled in a flat buffer — neither decode nor copy is left on the
// Worker's goroutine. A consumer that hops (a sparse schedule's Worker)
// drops the blocks it hops over as received.
//
// storage.BlockLayout is where entry offsets meet bytes. A block-encoded
// file (DOS v2) is fetched whole block by whole block — blocks no range
// touches are never read, which is selective scheduling's skip math
// landing as byte extents — a block two consecutive ranges share is
// read once, and a block is decoded whole. A fixed-entry file (DOS v1,
// CSR) is the same pipeline with codec 0: its blocks are addressed
// arithmetically, so each read is clipped to the requesting range and not
// one byte outside a range is read, and its entries are widened from the
// block's little-endian bytes.
type entryStream struct {
	blocks chan sioBlock
	stopc  chan struct{}
	adj    storage.BlockLayout
	ranges []entryRange
	met    *pipeStats // nil-able: the pipeline's timing and codec counters
	dec    []uint32   // the producer's decode buffer

	// consumer state
	blk sioBlock         // the block being served: entries [blk.start, blk.end)
	buf []graph.VertexID // the flat buffer a straddling window is assembled in; pooled
	err error
}

// sioBlock is one block in the queue: its entries.
type sioBlock struct {
	ents       []graph.VertexID
	idx        int64 // block index
	start, end int64 // absolute entry span
	err        error
}

// openEntryStream starts the prefetcher over the given ascending, disjoint
// entry ranges of the named adjacency file; the bytes between ranges are
// never touched (a seek replaces the skipped blocks' reads). A single
// full range is the seed prefetcher.
func openEntryStream(dev *storage.Device, adj storage.BlockLayout, file string, ranges []entryRange, met *pipeStats) (*entryStream, error) {
	f, err := dev.Open(file)
	if err != nil {
		return nil, err
	}
	s := &entryStream{
		// sioQueueDepth blocks of read-ahead: the paper's bounded queue.
		blocks: make(chan sioBlock, sioQueueDepth),
		stopc:  make(chan struct{}),
		adj:    adj,
		ranges: ranges,
		met:    met,
	}
	go s.prefetch(f)
	return s, nil
}

// prefetch is the Sio goroutine — the only code in the package that
// reads the edges file — and the Dispatcher too.
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
				s.fail(fmt.Errorf("core: reading block %d at byte %d: %w", b, lo, err))
				return
			}
			if s.met != nil {
				s.met.heatRead(b, hi-lo)
			}
			blk, err := s.dispatch(buf, sioBlock{idx: b, start: first, end: last})
			if err != nil {
				s.fail(err)
				return
			}
			select {
			case s.blocks <- blk:
			case <-s.stopc:
				// Early stop with the block still in hand: ownership
				// never transferred, so recycle it here or it is lost
				// to the GC.
				blk.release()
				return
			}
		}
	}
}

// fail hands the consumer the error that ends the stream.
func (s *entryStream) fail(err error) {
	select {
	case s.blocks <- sioBlock{err: err}:
	case <-s.stopc:
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

// dispatch is the Dispatcher step, run by the producer: the block's bytes,
// data, become its entries — decoded for an encoded block, widened from
// little-endian for a fixed-entry one — and go back to their pool. An
// encoded block's bytes are returned before its entry buffer is taken (the
// decode buffer stands between them), so the producer holds two pooled
// buffers at most, never three.
func (s *entryStream) dispatch(data []byte, blk sioBlock) (sioBlock, error) {
	fixed := s.adj.FixedEntries()
	if !fixed {
		err := s.decode(data, blk)
		blockPool.Put(data)
		if err != nil {
			return sioBlock{}, err
		}
	}
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	blk.ents = entryPool.Get(int(blk.end - blk.start))
	if fixed {
		widen(blk.ents, data)
		blockPool.Put(data)
	} else {
		ents := blk.ents[:len(s.dec)] // decode checked the count; says so to the compiler
		for i, v := range s.dec {
			ents[i] = graph.VertexID(v)
		}
	}
	if s.met != nil {
		s.met.dispatchNS.Add(int64(time.Since(t0)))
	}
	return blk, nil
}

// widen fills dst from src's little-endian u32s.
func widen(dst []graph.VertexID, src []byte) {
	for i := range dst {
		dst[i] = graph.VertexID(binary.LittleEndian.Uint32(src))
		src = src[4:]
	}
}

// decode decodes an encoded block's bytes, data, into s.dec.
func (s *entryStream) decode(data []byte, blk sioBlock) error {
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
	dec, err := s.adj.Codec.DecodeBlock(s.dec[:0], data)
	if s.met != nil {
		// The codec counters are a contract about encoded layouts: they
		// stay zero where entry offsets are byte arithmetic.
		ns := int64(time.Since(t0))
		s.met.dispatchNS.Add(ns)
		s.met.decodeNS.Add(ns)
		s.met.codecEncB.Add(int64(len(data)))
		s.met.codecRawB.Add(int64(len(dec)) * 4)
		s.met.heatDecode(blk.idx, ns)
	}
	if err != nil {
		return fmt.Errorf("core: decoding block %d: %w", blk.idx, err)
	}
	if int64(len(dec)) != blk.end-blk.start {
		return fmt.Errorf("core: block %d decodes to %d entries, want %d", blk.idx, len(dec), blk.end-blk.start)
	}
	s.dec = dec
	return nil
}

// release returns the block's entry buffer to its pool.
func (b *sioBlock) release() {
	if b.ents != nil {
		entryPool.Put(b.ents)
		b.ents = nil
	}
}

// window serves the entries from offset off on, at least n of them:
// everything the current block holds from off on, as a sub-slice of it,
// when the n entries lie inside one block — every request but a vertex
// that straddles a block boundary, which alone is assembled in the flat
// buffer. A failure sticks.
func (s *entryStream) window(off int64, n int) ([]graph.VertexID, error) {
	if s.err == nil && off >= s.blk.end {
		s.err = s.advance(off)
	}
	if s.err != nil {
		return nil, s.err
	}
	if off+int64(n) <= s.blk.end {
		return s.blk.ents[off-s.blk.start:], nil
	}
	var w []graph.VertexID
	w, s.err = s.fill(off, n)
	return w, s.err
}

// fill assembles the n entries from offset off on in the flat buffer: the
// rest of the current block and the ones that follow.
func (s *entryStream) fill(off int64, n int) ([]graph.VertexID, error) {
	if s.buf == nil {
		s.buf = entryPool.Get(0)
	}
	if n > cap(s.buf) {
		grown := entryPool.Get(max(n, 2*cap(s.buf)))
		entryPool.Put(s.buf)
		s.buf = grown
	}
	s.buf = s.buf[:0]
	for len(s.buf) < n {
		next := off + int64(len(s.buf)) // the first entry not yet buffered
		if next >= s.blk.end {
			if err := s.advance(next); err != nil {
				return nil, err
			}
		}
		take := copy(s.buf[len(s.buf):n], s.blk.ents[next-s.blk.start:])
		s.buf = s.buf[:len(s.buf)+take]
	}
	return s.buf, nil
}

// advance makes the block holding entry off the current one. The producer
// emits exactly the blocks the ranges need, in ascending order; the ones
// that end at or before off are blocks the consumer hopped over, and go
// back to the pool as they came.
func (s *entryStream) advance(off int64) error {
	for s.blk.end <= off {
		s.blk.release()
		blk, ok := <-s.blocks
		if !ok {
			return errAdjExhausted
		}
		if blk.err != nil {
			return blk.err
		}
		s.blk = blk
	}
	if off < s.blk.start {
		return fmt.Errorf("%w: entry %d is outside the stream's ranges (block %d follows with [%d,%d))",
			errAdjExhausted, off, s.blk.idx, s.blk.start, s.blk.end)
	}
	return nil
}

// stop shuts the prefetcher down, releasing the block in hand, the queued
// ones and the flat buffer back to their pools.
func (s *entryStream) stop() {
	close(s.stopc)
	s.blk.release()
	for blk := range s.blocks {
		blk.release()
	}
	if s.buf != nil {
		entryPool.Put(s.buf)
		s.buf = nil
	}
}

// memEntryStream is the resident source: the whole-file decoded
// adjacency, handed out as sub-slices — nothing is copied and nothing is
// skipped over.
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
