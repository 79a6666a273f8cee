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
// Worker's computation, and windows of entries are served by absolute
// entry offset.
//
// Who turns a block's bytes into entries — the Dispatcher's job — depends
// on the one mode switch, lazy. A bulk stream (a full scan, a cache fill:
// contiguous ranges consumed whole) dispatches on the prefetch goroutine,
// as the paper's concurrent stages do: the queue
// carries decoded entries, a window is a sub-slice of the current block,
// and only a request that straddles two blocks is assembled in a flat
// buffer — neither decode nor copy is left on the Worker's goroutine. A
// lazy stream (a sparse schedule's hopping Worker) queues the bytes as
// read: a block the consumer hops over is dropped as received, undecoded,
// and a window converts only the entries asked for.
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
	lazy   bool       // the consumer hops: queue bytes, decode what a window asks for
	met    *pipeStats // nil-able: the pipeline's timing and codec counters

	// dec is the decode buffer of whichever side dispatches, never both:
	// the producer's scratch on a bulk stream, on a lazy one the consumer's
	// current encoded blk, decoded (a fixed-entry blk is served from
	// blk.data).
	dec []uint32

	// consumer state
	blk    sioBlock         // the block being served: entries [blk.start, blk.end)
	buf    []graph.VertexID // the flat buffer: entries [bufOff, bufOff+len(buf)); pooled
	bufOff int64
	err    error
}

// sioBlock is one block in the queue: its bytes on a lazy stream, its
// entries on a bulk one.
type sioBlock struct {
	data       []byte
	ents       []graph.VertexID
	idx        int64 // block index
	start, end int64 // absolute entry span
	err        error
}

// openEntryStream starts the prefetcher over the given ascending, disjoint
// entry ranges of the named adjacency file; the bytes between ranges are
// never touched (a seek replaces the skipped blocks' reads). A single
// full range is the seed prefetcher. lazy is for the consumer that hops —
// a sparse schedule's Worker: blocks then stay bytes until a window
// reaches into them, and each window converts only the entries it was
// asked for instead of everything its block holds.
func openEntryStream(dev *storage.Device, adj storage.BlockLayout, file string, ranges []entryRange, lazy bool, met *pipeStats) (*entryStream, error) {
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
		lazy:   lazy,
		met:    met,
	}
	go s.prefetch(f)
	return s, nil
}

// prefetch is the Sio goroutine — the only code in the package that
// reads the edges file — and, on a bulk stream, the Dispatcher too.
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
			blk := sioBlock{data: buf, idx: b, start: first, end: last}
			if !s.lazy {
				if blk, err = s.dispatch(blk); err != nil {
					s.fail(err)
					return
				}
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

// dispatch is the Dispatcher step of a bulk stream, run by the producer:
// the block's bytes become its entries — decoded for an encoded block,
// widened from little-endian for a fixed-entry one — and go back to their
// pool. An encoded block's bytes are returned before its entry buffer is
// taken (the decode buffer stands between them), so the producer holds
// two pooled buffers at most, never three.
func (s *entryStream) dispatch(blk sioBlock) (sioBlock, error) {
	fixed := s.adj.FixedEntries()
	if !fixed {
		err := s.decode(blk)
		blockPool.Put(blk.data)
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
		widen(blk.ents, blk.data)
		blockPool.Put(blk.data)
	} else {
		ents := blk.ents[:len(s.dec)] // decode checked the count; says so to the compiler
		for i, v := range s.dec {
			ents[i] = graph.VertexID(v)
		}
	}
	blk.data = nil
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

// decode decodes an encoded block's bytes into s.dec: the producer's step
// on a bulk stream, the consumer's on first touch on a lazy one.
func (s *entryStream) decode(blk sioBlock) error {
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
	if err != nil {
		return fmt.Errorf("core: decoding block %d: %w", blk.idx, err)
	}
	if int64(len(dec)) != blk.end-blk.start {
		return fmt.Errorf("core: block %d decodes to %d entries, want %d", blk.idx, len(dec), blk.end-blk.start)
	}
	s.dec = dec
	return nil
}

// release returns the block's buffer to its pool.
func (b *sioBlock) release() {
	if b.data != nil {
		blockPool.Put(b.data)
		b.data = nil
	}
	if b.ents != nil {
		entryPool.Put(b.ents)
		b.ents = nil
	}
}

// window serves the entries from offset off on, at least n of them: on a
// bulk stream a view of the current block's entries, on a lazy one the
// flat buffer topped up to exactly n. A failure sticks.
func (s *entryStream) window(off int64, n int) ([]graph.VertexID, error) {
	if s.err != nil {
		return nil, s.err
	}
	var w []graph.VertexID
	if s.lazy {
		w, s.err = s.fill(off, n)
	} else {
		w, s.err = s.view(off, n)
	}
	return w, s.err
}

// view is a bulk stream's window: everything the current block holds from
// off on, as a sub-slice of it, when the n entries asked for lie inside
// one block — every request but a vertex that straddles a block boundary,
// which alone is assembled in the flat buffer.
func (s *entryStream) view(off int64, n int) ([]graph.VertexID, error) {
	if off >= s.blk.end {
		if err := s.advance(off); err != nil {
			return nil, err
		}
		// Whatever was assembled ended in a block now gone.
		s.buf, s.bufOff = s.buf[:0], s.blk.start
	}
	if off >= s.blk.start && off+int64(n) <= s.blk.end {
		return s.blk.ents[off-s.blk.start:], nil
	}
	return s.fill(off, n)
}

// fill makes the flat buffer hold the n entries from offset off on: what
// is already buffered from off on is kept, everything before it —
// buffered, or in blocks not yet received — is dropped unread, and the
// rest comes from the current block and the ones that follow. It returns
// the buffer: a lazy stream's window, a bulk stream's straddler.
func (s *entryStream) fill(off int64, n int) ([]graph.VertexID, error) {
	switch have := s.bufOff + int64(len(s.buf)); {
	case off < s.bufOff:
		return nil, fmt.Errorf("core: adjacency stream asked for entry %d after entry %d", off, s.bufOff)
	case off < have:
		s.buf = s.buf[:copy(s.buf, s.buf[off-s.bufOff:])]
	default:
		s.buf = s.buf[:0]
	}
	s.bufOff = off
	if s.buf == nil {
		s.buf = entryPool.Get(0)
	}
	if n > cap(s.buf) {
		grown := entryPool.Get(max(n, 2*cap(s.buf)))[:len(s.buf)]
		copy(grown, s.buf)
		entryPool.Put(s.buf)
		s.buf = grown
	}
	for len(s.buf) < n {
		next := off + int64(len(s.buf)) // the first entry not yet buffered
		if next >= s.blk.end {
			if err := s.advance(next); err != nil {
				return nil, err
			}
		}
		take := min(n-len(s.buf), int(s.blk.end-next))
		dst := s.buf[len(s.buf) : len(s.buf)+take]
		i := next - s.blk.start
		switch {
		case !s.lazy:
			copy(dst, s.blk.ents[i:])
		case s.adj.FixedEntries():
			// Straight from the block bytes: only the entries taken are
			// ever converted.
			widen(dst, s.blk.data[4*i:])
		default:
			for j, v := range s.dec[i:][:take] {
				dst[j] = graph.VertexID(v)
			}
		}
		s.buf = s.buf[:len(s.buf)+take]
	}
	return s.buf, nil
}

// advance makes the block holding entry off the current one. The producer
// emits exactly the blocks the ranges need, in ascending order; the ones
// that end at or before off are blocks the consumer hopped over, and go
// back to the pool as they came — on a lazy stream, undecoded. There the
// block that is kept is decoded now, on first touch.
func (s *entryStream) advance(off int64) error {
	for {
		s.blk.release()
		blk, ok := <-s.blocks
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
	if !s.lazy || s.adj.FixedEntries() {
		return nil
	}
	err := s.decode(s.blk)
	s.blk.release()
	return err
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
