package core

import (
	"fmt"
	"math/bits"

	"graphz/internal/graph"
	"graphz/internal/storage"
)

// Selective block scheduling (Options.SelectiveScheduling), the GraphMP
// observation applied to GraphZ: converging algorithms spend their tail
// iterations touching a handful of vertices, yet a streaming engine
// re-reads every adjacency block anyway. The engine keeps one bit per
// vertex — set when a message is applied to the vertex or its update
// calls MarkActive, cleared the moment its update runs (except during
// iteration 0: the Init pass conventionally broadcasts and ignores
// pending messages, so its bits survive into iteration 1, where the
// first real update acts on them) — and, per partition per iteration,
// derives per-block activity from the bitmap.
// Degree-Ordered Storage makes that derivation arithmetic: a partition's
// adjacency is a contiguous entry range, so "does block b contain an
// active vertex's edges" is a bitmap range test over a contiguous new-ID
// range. Blocks with no active vertex are never read; when the active
// density reaches a threshold the partition falls back to full streaming
// (dense iterations are faster streamed, as GraphMP observes). See
// DESIGN.md §9.

// entriesPerBlock is the scheduling granularity in adjacency entries:
// one device block.
const entriesPerBlock = int64(storage.DefaultBlockSize / 4)

// defaultSelectiveDensity is the active-vertex density at or above which
// a partition streams fully instead of scheduling blocks.
const defaultSelectiveDensity = 0.25

// activeSet is a dense bitmap over vertex IDs [base, base+n) with a
// maintained population count. The engine's global set uses base 0; the
// parallel Worker's speculative chunks use private overlays based at
// their chunk start.
type activeSet struct {
	base  graph.VertexID
	n     int
	words []uint64
	count int64
}

// newActiveSet returns an all-ones set over [0, n): every vertex is
// schedulable until its first update runs (iteration 0 is the Init
// pass, which must visit everyone).
func newActiveSet(n int) *activeSet {
	s := newEmptyActiveSet(0, n)
	s.fillAll()
	return s
}

// fillAll sets every bit in [base, base+n).
func (s *activeSet) fillAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := uint(s.n % 64); tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (uint64(1) << tail) - 1
	}
	s.count = int64(s.n)
}

// newEmptyActiveSet returns an all-zeros set over [base, base+n).
func newEmptyActiveSet(base graph.VertexID, n int) *activeSet {
	return &activeSet{base: base, n: n, words: make([]uint64, (n+63)/64)}
}

func (s *activeSet) set(v graph.VertexID) {
	i := int(v - s.base)
	w, b := i/64, uint(i%64)
	if s.words[w]&(1<<b) == 0 {
		s.words[w] |= 1 << b
		s.count++
	}
}

func (s *activeSet) clear(v graph.VertexID) {
	i := int(v - s.base)
	w, b := i/64, uint(i%64)
	if s.words[w]&(1<<b) != 0 {
		s.words[w] &^= 1 << b
		s.count--
	}
}

func (s *activeSet) get(v graph.VertexID) bool {
	i := int(v - s.base)
	return s.words[i/64]&(1<<uint(i%64)) != 0
}

// countRange returns the number of set bits in [lo, hi).
func (s *activeSet) countRange(lo, hi graph.VertexID) int64 {
	var total int64
	s.eachWord(lo, hi, func(w uint64) bool {
		total += int64(bits.OnesCount64(w))
		return true
	})
	return total
}

// anyInRange reports whether any bit in [lo, hi) is set.
func (s *activeSet) anyInRange(lo, hi graph.VertexID) bool {
	any := false
	s.eachWord(lo, hi, func(w uint64) bool {
		if w != 0 {
			any = true
			return false
		}
		return true
	})
	return any
}

// eachWord visits the set's words masked to [lo, hi), stopping early
// when fn returns false.
func (s *activeSet) eachWord(lo, hi graph.VertexID, fn func(w uint64) bool) {
	i, j := int(lo-s.base), int(hi-s.base)
	if i >= j {
		return
	}
	first, last := i/64, (j-1)/64
	for w := first; w <= last; w++ {
		word := s.words[w]
		if w == first {
			word &= ^uint64(0) << uint(i%64)
		}
		if w == last {
			if tail := uint(j % 64); tail != 0 {
				word &= (uint64(1) << tail) - 1
			}
		}
		if !fn(word) {
			return
		}
	}
}

// copyFrom overwrites dst bits [lo, hi) with src's — the commit step
// that installs a speculative chunk's private overlay into the global
// set, exactly as the sequential clear-on-update/set-on-apply sequence
// would have left them.
func (s *activeSet) copyFrom(src *activeSet, lo, hi graph.VertexID) {
	for v := lo; v < hi; v++ {
		if src.get(v) {
			s.set(v)
		} else {
			s.clear(v)
		}
	}
}

// marshal serializes the bitmap words little-endian for checkpointing.
func (s *activeSet) marshal() []byte {
	out := make([]byte, len(s.words)*8)
	for i, w := range s.words {
		for b := 0; b < 8; b++ {
			out[i*8+b] = byte(w >> (8 * uint(b)))
		}
	}
	return out
}

// unmarshalActiveSet restores a checkpointed bitmap over [0, n),
// recomputing the population count.
func unmarshalActiveSet(data []byte, n int) (*activeSet, error) {
	s := newEmptyActiveSet(0, n)
	if len(data) != len(s.words)*8 {
		return nil, fmt.Errorf("core: active-set section is %d bytes, %d vertices need %d", len(data), n, len(s.words)*8)
	}
	for i := range s.words {
		var w uint64
		for b := 0; b < 8; b++ {
			w |= uint64(data[i*8+b]) << (8 * uint(b))
		}
		s.words[i] = w
		s.count += int64(bits.OnesCount64(w))
	}
	return s, nil
}

// selRun is a maximal scheduled range of consecutive vertices and the
// adjacency entry span their updates consume.
type selRun struct {
	lo, hi           graph.VertexID // vertex range [lo, hi)
	startOff, endOff int64          // entry offsets [startOff, endOff)
}

// selSchedule is one partition's worker plan for one iteration.
type selSchedule struct {
	runs []selRun
	// streamAll marks a dense partition that reads its whole entry
	// range as a single run (the GraphMP fallback).
	streamAll bool
	// blocksTotal is the partition's adjacency block count; blocksRead
	// is how many the schedule touches. Their difference is the saved IO.
	blocksTotal int64
	blocksRead  int64
	activeCount int64
}

// planSelective computes the block schedule for partition [lo, hi),
// whose adjacency occupies entries starting at offset start with the
// given per-vertex degrees. epb is the block size in entries; a
// partition whose active density (set bits / vertices) is at or above
// threshold streams fully.
//
// Scheduling is block-granular: a block holding any active vertex's
// edges is read whole, and every vertex whose entries the schedule
// reads is updated — the extra updates are no-ops for frontier-safe
// programs (see Options.SelectiveScheduling). Active zero-degree
// vertices are scheduled too (their updates consume no entries).
func planSelective(as *activeSet, lo, hi graph.VertexID, start int64, degs []uint32, epb int64, threshold float64) selSchedule {
	count := int64(hi - lo)
	var entries int64
	for _, d := range degs {
		entries += int64(d)
	}
	sched := selSchedule{
		blocksTotal: (entries + epb - 1) / epb,
		activeCount: as.countRange(lo, hi),
	}
	if sched.activeCount == 0 {
		return sched
	}
	if float64(sched.activeCount) >= threshold*float64(count) {
		sched.streamAll = true
		sched.runs = []selRun{{lo: lo, hi: hi, startOff: start, endOff: start + entries}}
		sched.blocksRead = sched.blocksTotal
		return sched
	}

	// Pass 1: mark the blocks an active vertex's entry span touches.
	activeBlk := make([]bool, sched.blocksTotal)
	off := start
	for i := int64(0); i < count; i++ {
		d := int64(degs[i])
		if d > 0 && as.get(lo+graph.VertexID(i)) {
			first := (off - start) / epb
			last := (off + d - 1 - start) / epb
			for b := first; b <= last; b++ {
				activeBlk[b] = true
			}
		}
		off += d
	}

	// Pass 2: a vertex is scheduled iff it is active itself or shares a
	// marked block; consecutive scheduled vertices merge into runs.
	off = start
	for i := int64(0); i < count; i++ {
		v := lo + graph.VertexID(i)
		d := int64(degs[i])
		inc := as.get(v)
		if !inc && d > 0 {
			for b := (off - start) / epb; b <= (off+d-1-start)/epb && !inc; b++ {
				inc = activeBlk[b]
			}
		}
		if inc {
			if n := len(sched.runs); n > 0 && sched.runs[n-1].hi == v {
				sched.runs[n-1].hi = v + 1
				sched.runs[n-1].endOff = off + d
			} else {
				sched.runs = append(sched.runs, selRun{lo: v, hi: v + 1, startOff: off, endOff: off + d})
			}
		}
		off += d
	}

	// Blocks read: distinct blocks under the runs' entry spans. Runs may
	// begin or end mid-block (a scheduled vertex straddling an unmarked
	// block is read whole), so count from the spans, not the marks.
	last := int64(-1)
	for _, r := range sched.runs {
		if r.endOff == r.startOff {
			continue
		}
		first, end := (r.startOff-start)/epb, (r.endOff-1-start)/epb
		if first <= last {
			first = last + 1
		}
		if end >= first {
			sched.blocksRead += end - first + 1
			last = end
		}
	}
	return sched
}

// blocksIn returns the block count of entry range [start, end) at epb
// entries per block.
func blocksIn(start, end, epb int64) int64 {
	return (end - start + epb - 1) / epb
}
