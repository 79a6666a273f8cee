package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"graphz/internal/graph"
)

// Deterministic parallel Worker stage (Options.WorkerParallelism).
//
// The paper's ordering guarantee (Section V) demands that every run
// perform the identical sequence of operations: updates in ascending ID
// order, each ordered dynamic message applied the moment it is sent. A
// naive parallel Worker breaks that, because a vertex's update must see
// the applies of every earlier in-partition sender. This file keeps the
// guarantee with optimistic concurrency:
//
//  1. The resident partition's vertex range is split into contiguous
//     chunks. Each chunk's adjacency sub-range is computable up front
//     (DOS makes offsets arithmetic), so chunks read the device — or
//     the resident adjacency cache — independently.
//  2. Chunks execute speculatively on a pool: each worker decodes a
//     private copy of its chunk's post-drain vertex states from a
//     codec snapshot, runs Update in ID order, applies intra-chunk
//     dynamic messages to its private states immediately (exactly as
//     the sequential Worker would), and logs every extra-chunk message
//     in send order.
//  3. A single committer consumes chunks in ascending order. A clean
//     chunk commits by installing its speculated states and replaying
//     its log through Engine.send, the sequential routing. Any
//     in-partition apply that lands in a not-yet-committed chunk marks
//     that chunk dirty: its speculation read stale inputs, so at its
//     turn it is re-executed on the live states by the sequential Worker
//     loop itself (updateRuns over the chunk's one run).
//
// Because commits happen in chunk order and a chunk's speculation is
// only kept when nothing mutated its inputs, the observable sequence of
// updates, applies, buffered records, and spills — and therefore every
// vertex-state byte — is identical to the sequential engine. Programs
// whose dynamic messages rarely land in later chunks of the same
// partition (cross-partition traffic, sparse activations, or static
// messages, which never invalidate anything) get near-linear Worker
// speedup; dense in-partition forward traffic (PageRank's votes)
// degrades gracefully to sequential re-execution, never to a wrong
// answer. See DESIGN.md, "Deterministic parallel Worker stage".
//
// Requirements: Program.Update/Apply must not touch shared mutable
// state beyond the vertex passed in (true of every program in this
// repository), and the vertex codec must round-trip exactly (the engine
// already assumes this — states are round-tripped at every partition
// switch).

// chunksPerWorker over-partitions the vertex range so commit-order
// head-of-line blocking and load imbalance stay small.
const chunksPerWorker = 4

// inFlightWindowFactor bounds speculated-but-uncommitted chunks (their
// private states and message logs) to workers*factor.
const inFlightWindowFactor = 2

// workerChunk is one contiguous vertex sub-range of a partition and
// everything its speculative execution produced.
type workerChunk[V any] struct {
	selRun          // vertex sub-range [lo, hi) and its entry span
	degs   []uint32 // out-degrees for [lo, hi), precomputed

	states []V        // speculated vertex states (private deep copies)
	acts   *activeSet // speculated schedulability bits (selective scheduling)
	log    []byte     // extra-chunk messages, send order: 4 B dst + msize
	inline int64      // intra-chunk dynamic messages applied privately
	edges  int64      // adjacency entries consumed
	active bool
	durNS  int64 // speculation wall time (metrics only)
	err    error
	done   chan struct{}
}

// runWorkerParallel executes the Worker stage of the resident partition
// (entry range [start, end)) on the configured worker pool. It returns
// the partition's activity flag, exactly as updateRuns does.
func (e *Engine[V, M]) runWorkerParallel(iter int, start, end int64, ps *pipeStats) (bool, error) {
	lo, hi := e.partLo, e.partHi
	count := int(hi - lo)
	workers := e.workerCount()
	numChunks := workers * chunksPerWorker
	if numChunks > count {
		numChunks = count
	}
	chunkSize := (count + numChunks - 1) / numChunks
	numChunks = (count + chunkSize - 1) / chunkSize

	// Degrees and chunk offsets are precomputed on the engine
	// goroutine: the DOS layout's cursor is not safe for concurrent
	// lookups, and the ascending scan is what it is optimized for.
	degs := make([]uint32, count)
	chunkOff := make([]int64, numChunks+1)
	off := start
	for i := 0; i < count; i++ {
		if i%chunkSize == 0 {
			chunkOff[i/chunkSize] = off
		}
		d := e.layout.DegreeOf(lo + graph.VertexID(i))
		degs[i] = d
		off += int64(d)
	}
	chunkOff[numChunks] = off
	if off != end {
		return false, fmt.Errorf("core: vertices [%d,%d) adjacency range [%d,%d) disagrees with degree sum %d", lo, hi, start, end, off-start)
	}

	// Deep snapshot of the post-drain vertex states through the codec:
	// speculating workers decode their chunk from these bytes, so they
	// never share mutable state (slices inside V included) with
	// e.verts, which only the committer touches.
	snap := make([]byte, count*e.vsize)
	for i := 0; i < count; i++ {
		e.vcodec.Encode(snap[i*e.vsize:], e.verts[i])
	}

	chunks := make([]*workerChunk[V], numChunks)
	for i := range chunks {
		clo := lo + graph.VertexID(i*chunkSize)
		chi := clo + graph.VertexID(chunkSize)
		if chi > hi {
			chi = hi
		}
		chunks[i] = &workerChunk[V]{
			selRun: selRun{lo: clo, hi: chi, startOff: chunkOff[i], endOff: chunkOff[i+1]},
			degs:   degs[clo-lo : chi-lo],
			done:   make(chan struct{}),
		}
	}

	// Per-chunk start gates keep speculated-but-uncommitted chunks
	// within the window: gate i opens when chunk i-window commits.
	// Gating by chunk index (instead of a counting semaphore) makes the
	// scheme deadlock-free by construction — the chunk the committer is
	// waiting for always has an open gate.
	window := workers * inFlightWindowFactor
	gates := make([]chan struct{}, numChunks)
	for i := range gates {
		gates[i] = make(chan struct{})
		if i < window {
			close(gates[i])
		}
	}
	abort := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(abort)
		wg.Wait()
	}()

	for i, c := range chunks {
		gate := gates[i]
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-gate:
			case <-abort:
				close(c.done)
				return
			}
			e.speculateChunk(c, snap, iter, ps)
			close(c.done)
		}()
	}

	// Any inline apply the committer performs on the live states — a
	// replayed log record or a re-executed chunk's send — invalidates the
	// speculation of the chunk it lands in.
	dirty := make([]bool, numChunks)
	e.onInline = func(dst graph.VertexID) { dirty[int(dst-lo)/chunkSize] = true }
	defer func() { e.onInline = nil }()
	var reexecs, specNS, commitNS int64
	active := false
	for i, c := range chunks {
		<-c.done
		if c.err != nil {
			return false, c.err
		}
		specNS += c.durNS
		var t0 time.Time
		if e.eo.On {
			t0 = time.Now()
		}
		if dirty[i] {
			// An earlier chunk's dynamic message landed here after
			// the snapshot: the speculation read stale inputs.
			// Discard it and run the chunk through the sequential
			// Worker loop on the live states — the exact sequential
			// operation sequence.
			act, err := e.updateRuns(iter, []selRun{c.selRun}, false, degs, ps)
			if err != nil {
				return false, err
			}
			active = active || act
			reexecs++
		} else {
			e.commitChunk(c)
			active = active || c.active
		}
		if e.eo.On {
			commitNS += int64(time.Since(t0))
		}
		c.states, c.log, c.degs = nil, nil, nil
		if next := i + window; next < numChunks {
			close(gates[next])
		}
	}
	e.c.workerChunks += int64(numChunks)
	e.c.workerReexecs += reexecs
	e.c.workerSpecNS += specNS
	e.c.workerCommitNS += commitNS
	return active, nil
}

// speculateChunk runs one chunk's updates against a private copy of its
// vertex states. It mutates nothing shared: messages leaving the chunk
// are logged, counters are accumulated locally, and the committer folds
// everything in later.
func (e *Engine[V, M]) speculateChunk(c *workerChunk[V], snap []byte, iter int, ps *pipeStats) {
	var t0 time.Time
	if e.eo.On {
		t0 = time.Now()
	}
	src, err := e.adjSource([]entryRange{{start: c.startOff, end: c.endOff}}, false, ps)
	if err != nil {
		c.err = err
		return
	}
	defer src.stop()

	n := int(c.hi - c.lo)
	c.states = make([]V, n)
	base := int(c.lo-e.partLo) * e.vsize
	for i := 0; i < n; i++ {
		c.states[i] = e.vcodec.Decode(snap[base+i*e.vsize:])
	}

	ctx := &Context[M]{iteration: iter}
	if e.sel != nil {
		// Private bit overlay for [c.lo, c.hi): the sequential Worker
		// would leave a chunk vertex's bit set only if an apply (or
		// MarkActive) landed after its update within this chunk — the
		// overlay records exactly those, and the committer installs it
		// over the global set when the speculation is kept. At
		// iteration 0 the Init pass leaves every bit set (see updateRuns),
		// so the overlay starts full.
		c.acts = newEmptyActiveSet(c.lo, n)
		if iter == 0 {
			c.acts.fillAll()
		}
		ctx.as = c.acts
	}
	rec := 4 + e.msize
	ctx.send = func(dst graph.VertexID, m M) {
		if e.opts.DynamicMessages && dst >= c.lo && dst < c.hi {
			// Intra-chunk ordered dynamic message: the chunk runs
			// sequentially, so applying to the private state is
			// exactly what the sequential Worker does.
			e.prog.Apply(&c.states[dst-c.lo], m)
			c.inline++
			if c.acts != nil {
				c.acts.set(dst)
			}
			return
		}
		off := len(c.log)
		c.log = growRecord(c.log, rec)
		binary.LittleEndian.PutUint32(c.log[off:], uint32(dst))
		e.mcodec.Encode(c.log[off+4:], m)
	}

	br := batchReader{src: src}
	off := c.startOff
	for v := c.lo; v < c.hi; v++ {
		deg := c.degs[v-c.lo]
		if c.acts != nil {
			if iter > 0 {
				c.acts.clear(v)
			}
			ctx.cur = v
		}
		adj, err := br.adj(off, deg)
		if err != nil {
			c.err = fmt.Errorf("core: adjacency stream for vertex %d: %w", v, err)
			return
		}
		e.prog.Update(ctx, v, &c.states[v-c.lo], adj)
		off += int64(deg)
	}
	c.edges = off - c.startOff
	c.active = ctx.active
	if e.eo.On {
		c.durNS = int64(time.Since(t0))
	}
}

// commitChunk installs a clean chunk's speculated states, folds its
// locally accumulated counters, and replays its
// extra-chunk message log — in send order — through Engine.send, exactly
// as the sequential Worker would have sent each one.
func (e *Engine[V, M]) commitChunk(c *workerChunk[V]) {
	copy(e.verts[c.lo-e.partLo:c.hi-e.partLo], c.states)
	if c.acts != nil {
		// A clean commit means no earlier chunk's apply landed here, so
		// the overlay is exactly the bit state the sequential
		// clear-on-update/set-on-apply sequence would have left.
		e.sel.copyFrom(c.acts, c.lo, c.hi)
		c.acts = nil
	}
	e.c.Updates += int64(len(c.states))
	e.c.edges += c.edges
	// Intra-chunk messages were sent and applied privately; the logged
	// ones are counted by send as they replay.
	e.c.Sent += c.inline
	e.c.Inline += c.inline
	e.c.Applied += c.inline
	rec := 4 + e.msize
	for off := 0; off+rec <= len(c.log); off += rec {
		e.send(graph.VertexID(binary.LittleEndian.Uint32(c.log[off:])), e.mcodec.Decode(c.log[off+4:]))
	}
}

// growRecord extends b by rec bytes, reallocating geometrically.
func growRecord(b []byte, rec int) []byte {
	n := len(b)
	if n+rec <= cap(b) {
		return b[:n+rec]
	}
	newCap := 2 * (n + rec)
	if newCap < 1024 {
		newCap = 1024
	}
	nb := make([]byte, n+rec, newCap)
	copy(nb, b)
	return nb
}
