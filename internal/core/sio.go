package core

import (
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

// entrySource is where the Worker's adjacency entries come from: the Sio
// prefetcher (entryStream) or the resident adjacency (memEntryStream).
// read copies entries into dst in stream order and returns how many it
// delivered — at least one, at most len(dst). It may block on the
// prefetcher, and fails with errAdjExhausted once the source's ranges are
// spent. stop releases the source; it must be called exactly once.
type entrySource interface {
	read(dst []graph.VertexID) (int, error)
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
// Worker's computation; the consumer decodes each block once (the
// Dispatcher's job) and serves entries by absolute entry offset.
//
// storage.BlockLayout is where entry offsets meet bytes. A block-encoded
// file (DOS v2) is fetched whole block by whole block — blocks no range
// touches are never read, which is selective scheduling's skip math
// landing as byte extents — and a block two consecutive ranges share is
// read once. A fixed-entry file (DOS v1, CSR) is the same pipeline with
// codec 0: its blocks are addressed arithmetically, so each read is
// clipped to the requesting range and not one byte outside a range is
// read.
type entryStream struct {
	blocks chan sioBlock
	stopc  chan struct{}
	adj    storage.BlockLayout
	ranges []entryRange
	met    *pipeStats // nil-able: the pipeline's timing and stall counters

	// consumer state
	dec      []uint32 // decoded entries [decStart, decStart+len(dec))
	decStart int64
	ri       int   // current range index
	cur      int64 // absolute entry offset the next read serves
	err      error
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
// full range is the seed prefetcher.
func openEntryStream(dev *storage.Device, adj storage.BlockLayout, file string, ranges []entryRange, met *pipeStats) (*entryStream, error) {
	f, err := dev.Open(file)
	if err != nil {
		return nil, err
	}
	s := &entryStream{
		blocks: make(chan sioBlock, sioQueueDepth),
		stopc:  make(chan struct{}),
		adj:    adj,
		ranges: ranges,
		met:    met,
	}
	if len(ranges) > 0 {
		s.cur = ranges[0].start
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

// read bulk-copies decoded entries into dst: everything the current
// decoded block still holds of the current range, receiving and decoding
// the next block when it is spent.
func (s *entryStream) read(dst []graph.VertexID) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	for s.ri < len(s.ranges) && s.cur >= s.ranges[s.ri].end {
		s.ri++
		if s.ri < len(s.ranges) {
			s.cur = s.ranges[s.ri].start
		}
	}
	if s.ri >= len(s.ranges) {
		s.err = errAdjExhausted
		return 0, s.err
	}
	if s.cur < s.decStart || s.cur >= s.decStart+int64(len(s.dec)) {
		if err := s.recvDecode(); err != nil {
			s.err = err
			return 0, err
		}
	}
	end := min(s.decStart+int64(len(s.dec)), s.ranges[s.ri].end)
	n := min(int(end-s.cur), len(dst))
	off := int(s.cur - s.decStart)
	src := s.dec[off : off+n]
	dst = dst[:len(src)] // one bounds check for the whole copy
	for i, v := range src {
		dst[i] = graph.VertexID(v)
	}
	s.cur += int64(n)
	return n, nil
}

// recvDecode receives the next block from the prefetcher and decodes it —
// the Dispatcher step. The producer emits exactly the blocks the ranges
// need, in ascending order, so the block received must hold s.cur.
func (s *entryStream) recvDecode() error {
	blk, ok := s.recv()
	if !ok {
		return errAdjExhausted
	}
	if blk.err != nil {
		return blk.err
	}
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
		ns := int64(time.Since(t0))
		s.met.dispatchNS.Add(ns)
		if !s.adj.FixedEntries() {
			// The codec counters are a contract about encoded layouts:
			// they stay zero where entry offsets are byte arithmetic.
			s.met.decodeNS.Add(ns)
			s.met.codecEncB.Add(int64(len(blk.data)))
			s.met.codecRawB.Add(int64(len(dec)) * 4)
			s.met.heatDecode(blk.idx, ns)
		}
	}
	blockPool.Put(blk.data)
	if err != nil {
		return fmt.Errorf("core: decoding block %d: %w", blk.idx, err)
	}
	if int64(len(dec)) != blk.end-blk.start {
		return fmt.Errorf("core: block %d decodes to %d entries, want %d", blk.idx, len(dec), blk.end-blk.start)
	}
	if s.cur < blk.start || s.cur >= blk.end {
		return fmt.Errorf("core: adjacency stream out of order: got entries [%d,%d) of block %d, want entry %d", blk.start, blk.end, blk.idx, s.cur)
	}
	s.dec, s.decStart = dec, blk.start
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

// stop shuts the prefetcher down, releasing queued buffers back to the
// pool.
func (s *entryStream) stop() {
	close(s.stopc)
	for blk := range s.blocks {
		if blk.data != nil {
			blockPool.Put(blk.data)
		}
	}
}

// memEntryStream is the resident source: it serves a list of entry ranges
// over the whole-file decoded adjacency, in order. It consumes the ranges
// slice it is given.
type memEntryStream struct {
	data   []graph.VertexID
	ranges []entryRange
}

func (s *memEntryStream) read(dst []graph.VertexID) (int, error) {
	for len(s.ranges) > 0 && s.ranges[0].start >= s.ranges[0].end {
		s.ranges = s.ranges[1:]
	}
	if len(s.ranges) == 0 {
		return 0, errAdjExhausted
	}
	r := &s.ranges[0]
	n := copy(dst, s.data[r.start:r.end])
	r.start += int64(n)
	return n, nil
}

func (s *memEntryStream) stop() {}
