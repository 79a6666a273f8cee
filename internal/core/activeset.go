package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"graphz/internal/checkpoint"
	"graphz/internal/graph"
)

// Selective block scheduling (of every program that declares FrontierSafe,
// on every run but one that pins the paper's engine with
// Options.StreamAdjacency), the GraphMP observation applied to GraphZ:
// converging algorithms spend their tail iterations touching a handful of
// vertices, yet a streaming engine re-reads every adjacency block anyway.
// The engine keeps one bit per vertex — initially the program's declared
// initial frontier (every vertex when it declares nil), set when a message
// changes the vertex (its Apply reports true: send's inline apply, and
// ApplyAll and ApplyEach through applyOnSpot and applyEachOnSpot), when a
// record to it is delivered (drainRecords) or, resident, sent (sendRecords,
// and send on the in-place route) — whatever Apply reports there, a safe
// superset — or when its update called MarkActive (updateRuns, which reads
// the Context's flag once Update returns), cleared just before its update
// runs, iteration 0's too, replaced whole by resume — every writer is the
// engine's — and, per partition per iteration, derives per-block activity
// from the bitmap. Degree-Ordered Storage makes that derivation arithmetic:
// a partition's adjacency is a contiguous entry range, so "does block b
// contain an active vertex's edges" is a bitmap range test over a
// contiguous new-ID range. Blocks with no active vertex are never read;
// when the active density reaches a threshold the partition falls back to
// full streaming (dense iterations are faster streamed, as GraphMP
// observes). A summary byte per bitmap word marks the non-empty ones, so
// every walk of the bits — the Worker's, the planner's, appendActive's —
// steps over 8 empty words a load: a frontier of a few hundred vertices
// costs what it holds, not V/64 loads a walk. See DESIGN.md §9.

// defaultSelectiveDensity is the active-vertex density at or above which
// a partition streams fully instead of scheduling blocks.
const defaultSelectiveDensity = 0.25

// Frontier is the set of schedulable vertices under selective scheduling: a
// dense bitmap over vertex IDs [0, n) and a summary of it, one byte per
// bitmap word, non-zero exactly when the word is not zero. set and clear
// keep the summary true with one plain store; the walks (nextSet,
// countRange) read it eight bytes at a load and so step over 8 empty words
// at a time, and a thin frontier costs what it holds, not V/64. It is
// opaque outside the engine: a program's bulk appliers (ApplyAll,
// ApplyEach) are handed it, nil when the run is not scheduled selectively,
// and mark in it through the helpers.
type Frontier struct {
	words []uint64
	sum   []byte // sum[w] != 0 ⇔ words[w] != 0; padded to whole 8-byte loads
	n     int
}

// newActiveSet returns an all-ones set over [0, n): every vertex is
// schedulable until its first update runs — iteration 0 of a program whose
// initial frontier is every vertex (nil), or a resume from a checkpoint
// without a bitmap.
func newActiveSet(n int) *Frontier {
	s := newEmptyActiveSet(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := uint(n % 64); tail != 0 {
		s.words[len(s.words)-1] = (uint64(1) << tail) - 1
	}
	s.summarize()
	return s
}

// newEmptyActiveSet returns an all-zeros set over [0, n).
func newEmptyActiveSet(n int) *Frontier {
	words := (n + 63) / 64
	return &Frontier{words: make([]uint64, words), sum: make([]byte, (words+7)&^7), n: n}
}

// summarize rebuilds the summary from the words.
func (s *Frontier) summarize() {
	clear(s.sum)
	for w, x := range s.words {
		if x != 0 {
			s.sum[w] = 1
		}
	}
}

// set marks v. Two stores and no test, so it inlines into the bulk
// appliers' loops (ci/inlinecheck.sh) as well as into the Worker's.
func (s *Frontier) set(v graph.VertexID) {
	s.words[v/64] |= 1 << (v % 64)
	s.sum[v/64] = 1
}

func (s *Frontier) clear(v graph.VertexID) {
	w := v / 64
	if s.words[w] &^= 1 << (v % 64); s.words[w] == 0 {
		s.sum[w] = 0
	}
}

func (s *Frontier) get(v graph.VertexID) bool {
	return s.words[v/64]&(1<<(v%64)) != 0
}

// nextWord returns the first word index in [w, end) whose word is not zero,
// or end: eight summary bytes a load, from the aligned group that holds w.
func (s *Frontier) nextWord(w, end int) int {
	if w >= end {
		return end
	}
	k := w &^ 7
	m := binary.LittleEndian.Uint64(s.sum[k:]) &^ (uint64(1)<<(8*uint(w-k)) - 1)
	for m == 0 {
		if k += 8; k >= end {
			return end
		}
		m = binary.LittleEndian.Uint64(s.sum[k:])
	}
	return min(k+bits.TrailingZeros64(m)/8, end)
}

// countRange returns the number of set bits in [lo, hi): one popcount a
// non-empty word, the first and last word masked to the range.
func (s *Frontier) countRange(lo, hi graph.VertexID) int64 {
	i, j := int(lo), int(hi)
	if i >= j {
		return 0
	}
	first, last := i/64, (j-1)/64
	head := s.words[first] &^ (uint64(1)<<uint(i%64) - 1)
	tail := ^uint64(0) >> uint(63-(j-1)%64)
	if first == last {
		return int64(bits.OnesCount64(head & tail))
	}
	n := bits.OnesCount64(head) + bits.OnesCount64(s.words[last]&tail)
	for w := s.nextWord(first+1, last); w < last; w = s.nextWord(w+1, last) {
		n += bits.OnesCount64(s.words[w])
	}
	return int64(n)
}

// nextBit returns the smallest v' in [v, hi) whose bit equals want, or hi
// when there is none. It reads the live words, so a caller that sets bits
// ahead of v between calls finds them. A set bit is looked for through the
// summary; a clear one word by word (a summary bit says a word is not
// empty, not that it is not full).
func (s *Frontier) nextBit(v, hi graph.VertexID, want bool) graph.VertexID {
	i, j := int(v), int(hi)
	if i >= j {
		return hi
	}
	var flip uint64
	if !want {
		flip = ^uint64(0)
	}
	w, end := i/64, (j+63)/64
	word := (s.words[w] ^ flip) &^ (uint64(1)<<uint(i%64) - 1)
	for word == 0 {
		if want {
			w = s.nextWord(w+1, end)
		} else {
			w++
		}
		if w >= end {
			return hi
		}
		word = s.words[w] ^ flip
	}
	if p := w*64 + bits.TrailingZeros64(word); p < j {
		return graph.VertexID(p)
	}
	return hi
}

// nextSet returns the smallest set bit in [v, hi), or hi.
func (s *Frontier) nextSet(v, hi graph.VertexID) graph.VertexID { return s.nextBit(v, hi, true) }

// marshal serializes the bitmap words little-endian for checkpointing.
func (s *Frontier) marshal() []byte {
	out := make([]byte, len(s.words)*8)
	for i, w := range s.words {
		for b := 0; b < 8; b++ {
			out[i*8+b] = byte(w >> (8 * uint(b)))
		}
	}
	return out
}

// unmarshalActiveSet restores a checkpointed bitmap over [0, n),
// recomputing the summary. A section of the wrong length, or with a bit set
// at or past n, is a damaged checkpoint (checkpoint.ErrTruncated): such a
// bit would skew the count the planner sizes a partition's frontier by.
func unmarshalActiveSet(data []byte, n int) (*Frontier, error) {
	s := newEmptyActiveSet(n)
	if len(data) != len(s.words)*8 {
		return nil, fmt.Errorf("%w: active-set section is %d bytes, %d vertices need %d",
			checkpoint.ErrTruncated, len(data), n, len(s.words)*8)
	}
	for i := range s.words {
		var w uint64
		for b := 0; b < 8; b++ {
			w |= uint64(data[i*8+b]) << (8 * uint(b))
		}
		s.words[i] = w
	}
	if tail := uint(n % 64); tail != 0 && s.words[len(s.words)-1]>>tail != 0 {
		return nil, fmt.Errorf("%w: active-set section sets a bit at or past vertex %d", checkpoint.ErrTruncated, n)
	}
	s.summarize()
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
	// runs aliases the planner's scratch: valid until its next plan.
	runs []selRun
	// streamAll marks a dense partition that reads its whole entry
	// range as a single run (the GraphMP fallback).
	streamAll bool
	// blocksTotal is the partition's adjacency block count; blocksRead
	// is how many the schedule touches. Their difference is the saved IO.
	// Both count blocks of the edges file's own grid (entry offset / epb,
	// the blocks Sio reads and the heatmap attributes), so a block two
	// partitions share is one block to each of them.
	blocksTotal int64
	blocksRead  int64
	activeCount int64
}

// examined is what planning looked at, the unit of sim.CostActiveScan:
// the partition's blocks, plus every set bit a sparse plan walked.
func (s selSchedule) examined() int64 {
	if s.streamAll {
		return s.blocksTotal
	}
	return s.blocksTotal + s.activeCount
}

// spanIndex is what the planner needs of a Layout: a vertex's entry span,
// computed (the paper's DOS formula) rather than stored per vertex.
type spanIndex interface {
	DegreeRun(x graph.VertexID) (uint32, graph.VertexID)
	OffsetOf(x graph.VertexID) int64
	NextZeroDegree(x, hi graph.VertexID) graph.VertexID
}

// blockSpan is a maximal interval [first, last] of marked blocks.
type blockSpan struct{ first, last int64 }

// selPlanner computes selective schedules. It holds only scratch, reused
// from one plan to the next so a sparse iteration allocates nothing.
type selPlanner struct {
	marked []blockSpan
	runs   []selRun
}

// runBuilder assembles one plan's runs over partition [.., hi), whose
// adjacency ends at entry offset end.
type runBuilder struct {
	as      *Frontier
	idx     spanIndex
	hi      graph.VertexID
	end     int64
	runs    []selRun
	covered int64 // entries below this offset belong to a run already
}

// blocksSpanned returns how many blocks of epb entries the entry range
// [start, end) touches.
func blocksSpanned(start, end, epb int64) int64 {
	if end <= start {
		return 0
	}
	return (end-1)/epb - start/epb + 1
}

// plan computes the block schedule for partition [lo, hi), whose
// adjacency occupies entries [start, end). epb is the block size in
// entries; a partition whose active density (set bits / vertices) is at
// or above threshold streams fully.
//
// IO is block-granular: a block holding any active vertex's edges is read
// whole, and a run is a maximal range of vertices whose entry spans touch
// such a block (spans are read whole, so a run may begin or end
// mid-block). Updates are bit-granular: the Worker visits only the set
// bits inside a run. Active zero-degree vertices are scheduled too (their
// updates consume no entries); inactive ones belong to no run.
//
// The cost is O(summary loads + non-empty words + marked blocks · log
// vertices): the frontier is sized by a popcount of its non-empty words,
// one pass marks blocks through the vertex → span arithmetic, and every
// vertex with entries it
// visits marks a block (active zero-degree vertices, the runs' business
// anyway, are stepped over); the runs come back from the marked intervals
// by an offset → vertex search. There is no per-vertex pass and no
// per-block activity summary to maintain.
func (pl *selPlanner) plan(as *Frontier, idx spanIndex, lo, hi graph.VertexID, start, end, epb int64, threshold float64) selSchedule {
	sched := selSchedule{
		blocksTotal: blocksSpanned(start, end, epb),
		activeCount: as.countRange(lo, hi),
	}
	pl.runs = pl.runs[:0]
	if sched.activeCount == 0 {
		return sched
	}
	if float64(sched.activeCount) >= threshold*float64(hi-lo) {
		sched.streamAll = true
		pl.runs = append(pl.runs, selRun{lo: lo, hi: hi, startOff: start, endOff: end})
		sched.runs = pl.runs
		sched.blocksRead = sched.blocksTotal
		return sched
	}

	// Mark the blocks an active vertex's entry span touches. Bits ascend,
	// so do spans, so the marks arrive as ascending intervals. Once v's
	// span is marked up to block last, a later vertex whose span ends in
	// last marks nothing new: the next that can is the owner of entry
	// (last+1)·epb — found by arithmetic inside v's degree run, by search
	// past it — so each vertex visited extends the marks.
	b := runBuilder{as: as, idx: idx, hi: hi, end: end, runs: pl.runs, covered: start}
	pl.marked = pl.marked[:0]
	for v := as.nextSet(lo, hi); v < hi; {
		d, runEnd := idx.DegreeRun(v)
		if d == 0 {
			v = as.nextSet(v+1, hi)
			continue
		}
		off := idx.OffsetOf(v)
		first, last := off/epb, (off+int64(d)-1)/epb
		if n := len(pl.marked); n > 0 && first <= pl.marked[n-1].last+1 {
			pl.marked[n-1].last = last
		} else {
			pl.marked = append(pl.marked, blockSpan{first, last})
		}
		next := (last + 1) * epb
		if next >= end {
			break
		}
		w := v + graph.VertexID((next-off)/int64(d))
		if w >= runEnd {
			w = b.ownerOf(runEnd, next)
		}
		v = as.nextSet(w, hi)
	}

	// A vertex with entries is scheduled iff its span touches a marked
	// block: the owners of a marked interval's first and last entry and
	// everyone between them. Between two such ranges only the active
	// (necessarily zero-degree) vertices are scheduled.
	next := lo // first vertex no run has considered yet
	for _, m := range pl.marked {
		// Clip to the partition, and to what the previous interval's last
		// owner — read whole — already covers.
		from, to := max(m.first*epb, b.covered), min((m.last+1)*epb, end)
		if from >= to {
			continue
		}
		first := b.ownerOf(next, from)
		last := b.ownerOf(first, to-1)
		b.appendActive(next, first)
		b.appendOwners(first, last+1)
		next = last + 1
	}
	b.appendActive(next, hi)
	pl.runs, sched.runs = b.runs, b.runs

	// Blocks read: distinct blocks under the runs' entry spans. Runs may
	// begin or end mid-block (a scheduled vertex straddling an unmarked
	// block is read whole), so count from the spans, not the marks.
	lastBlk := int64(-1)
	for _, r := range sched.runs {
		if r.endOff == r.startOff {
			continue
		}
		first, last := max(r.startOff/epb, lastBlk+1), (r.endOff-1)/epb
		if last >= first {
			sched.blocksRead += last - first + 1
			lastBlk = last
		}
	}
	return sched
}

// ownerOf returns the vertex in [from, hi) whose adjacency holds entry
// off: the last one whose span starts at or before it. OffsetOf(from)
// must not exceed off.
func (b *runBuilder) ownerOf(from graph.VertexID, off int64) graph.VertexID {
	n := sort.Search(int(b.hi-from), func(i int) bool {
		return b.idx.OffsetOf(from+graph.VertexID(i)) > off
	})
	return from + graph.VertexID(n) - 1
}

// appendRun schedules vertices [lo, hi), extending the last run when they
// follow it directly.
func (b *runBuilder) appendRun(lo, hi graph.VertexID) {
	if lo >= hi {
		return
	}
	endOff := b.end
	if hi < b.hi {
		endOff = b.idx.OffsetOf(hi)
	}
	b.covered = endOff
	if n := len(b.runs); n > 0 && b.runs[n-1].hi == lo {
		b.runs[n-1].hi, b.runs[n-1].endOff = hi, endOff
		return
	}
	b.runs = append(b.runs, selRun{lo: lo, hi: hi, startOff: b.idx.OffsetOf(lo), endOff: endOff})
}

// appendActive schedules the set bits of [lo, hi), a range no marked
// block reaches: one run per maximal stretch of them.
func (b *runBuilder) appendActive(lo, hi graph.VertexID) {
	for s := b.as.nextSet(lo, hi); s < hi; {
		t := b.as.nextBit(s, hi, false)
		b.appendRun(s, t)
		s = b.as.nextSet(t, hi)
	}
}

// appendOwners schedules [lo, hi), the owners of a marked interval: every
// vertex with entries, and of the zero-degree ones among them the active.
func (b *runBuilder) appendOwners(lo, hi graph.VertexID) {
	s := lo
	for z := b.idx.NextZeroDegree(lo, hi); z < hi; z = b.idx.NextZeroDegree(z+1, hi) {
		if !b.as.get(z) {
			b.appendRun(s, z)
			s = z + 1
		}
	}
	b.appendRun(s, hi)
}
