package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"graphz/internal/dos"
	"graphz/internal/graph"
	"graphz/internal/obs"
)

// Tests for selective block scheduling: the activeSet bitmap primitives,
// the block-granular scheduler against its reference, and the BFS-tail
// IO-reduction claim the feature exists for. (That selective runs reach the
// reference's fixpoint is FuzzEngineOracle's to hold.)

func TestActiveSetPrimitives(t *testing.T) {
	s := newEmptyActiveSet(200)
	if s.count != 0 || s.anyInRange(0, 200) {
		t.Fatal("empty set reports activity")
	}
	// Set bits straddling word boundaries; set is idempotent.
	for _, v := range []graph.VertexID{0, 63, 64, 127, 128, 199, 63} {
		s.set(v)
	}
	if s.count != 6 {
		t.Errorf("count = %d, want 6", s.count)
	}
	if !s.get(63) || !s.get(64) || s.get(65) {
		t.Error("get misreads word-boundary bits")
	}
	if got := s.countRange(63, 65); got != 2 {
		t.Errorf("countRange(63, 65) = %d, want 2", got)
	}
	if got := s.countRange(0, 200); got != 6 {
		t.Errorf("countRange(0, 200) = %d, want 6", got)
	}
	if s.anyInRange(65, 127) {
		t.Error("anyInRange true over an all-zero interior range")
	}
	if !s.anyInRange(199, 200) || !s.anyInRange(0, 1) {
		t.Error("anyInRange misses single-bit edges")
	}
	if s.countRange(10, 10) != 0 || s.anyInRange(10, 10) {
		t.Error("empty range should count zero")
	}
	// clear is idempotent too and maintains the count.
	s.clear(63)
	s.clear(63)
	if s.count != 5 || s.get(63) {
		t.Errorf("after clear: count = %d, get(63) = %v", s.count, s.get(63))
	}

	// newActiveSet starts all-ones, including a partial tail word.
	full := newActiveSet(70)
	if full.count != 70 || full.countRange(0, 70) != 70 {
		t.Errorf("all-ones set count = %d / range %d, want 70", full.count, full.countRange(0, 70))
	}
}

func TestActiveSetMarshalRoundTrip(t *testing.T) {
	s := newEmptyActiveSet(130)
	for _, v := range []graph.VertexID{0, 1, 64, 100, 129} {
		s.set(v)
	}
	data := s.marshal()
	got, err := unmarshalActiveSet(data, 130)
	if err != nil {
		t.Fatal(err)
	}
	if got.count != s.count || !bytes.Equal(got.marshal(), data) {
		t.Errorf("round trip lost bits: count %d vs %d", got.count, s.count)
	}
	for _, v := range []graph.VertexID{0, 1, 64, 100, 129, 2, 63, 128} {
		if got.get(v) != s.get(v) {
			t.Errorf("bit %d = %v after round trip, want %v", v, got.get(v), s.get(v))
		}
	}
	if _, err := unmarshalActiveSet(data[:8], 130); err == nil {
		t.Error("short section should fail to unmarshal")
	}
	if _, err := unmarshalActiveSet(data, 7000); err == nil {
		t.Error("vertex-count mismatch should fail to unmarshal")
	}
}

// planSelectiveRef is the reference planner: the two passes over every
// vertex of the partition the engine ran before the planner walked set
// bits, kept (on the edges file's own block grid) as the definition the
// planner is property-tested against. degs holds the out-degrees of
// [lo, hi), whose adjacency starts at entry offset start.
//
// Scheduling is block-granular: a block holding any active vertex's
// edges is read whole, and every vertex whose entries touch such a block
// is scheduled. Active zero-degree vertices are scheduled too (their
// updates consume no entries).
func planSelectiveRef(as *activeSet, lo, hi graph.VertexID, start int64, degs []uint32, epb int64, threshold float64) selSchedule {
	count := int64(hi - lo)
	var entries int64
	for _, d := range degs {
		entries += int64(d)
	}
	sched := selSchedule{
		blocksTotal: blocksSpanned(start, start+entries, epb),
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
	base := start / epb
	activeBlk := make([]bool, sched.blocksTotal)
	off := start
	for i := int64(0); i < count; i++ {
		d := int64(degs[i])
		if d > 0 && as.get(lo+graph.VertexID(i)) {
			for b := off / epb; b <= (off+d-1)/epb; b++ {
				activeBlk[b-base] = true
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
			for b := off / epb; b <= (off+d-1)/epb && !inc; b++ {
				inc = activeBlk[b-base]
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
		first, end := r.startOff/epb, (r.endOff-1)/epb
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

// degIndex is a spanIndex over an explicit degree sequence: vertex lo+i
// has degs[i] entries, the first of them at offset start.
type degIndex struct {
	lo   graph.VertexID
	offs []int64 // offs[i] is vertex lo+i's offset; one extra for the end
}

func newDegIndex(lo graph.VertexID, start int64, degs []uint32) *degIndex {
	x := &degIndex{lo: lo, offs: make([]int64, len(degs)+1)}
	x.offs[0] = start
	for i, d := range degs {
		x.offs[i+1] = x.offs[i] + int64(d)
	}
	return x
}

func (x *degIndex) OffsetOf(v graph.VertexID) int64 { return x.offs[v-x.lo] }

func (x *degIndex) DegreeOf(v graph.VertexID) uint32 {
	return uint32(x.offs[v-x.lo+1] - x.offs[v-x.lo])
}

func (x *degIndex) NextZeroDegree(v, hi graph.VertexID) graph.VertexID {
	for ; v < hi; v++ {
		if x.DegreeOf(v) == 0 {
			return v
		}
	}
	return hi
}

// planBoth plans with the planner and with the reference, and fails the
// test unless they agree on everything the engine reads off a schedule.
func planBoth(t *testing.T, pl *selPlanner, as *activeSet, lo graph.VertexID, start int64, degs []uint32, epb int64, threshold float64) selSchedule {
	t.Helper()
	hi := lo + graph.VertexID(len(degs))
	x := newDegIndex(lo, start, degs)
	got := pl.plan(as, x, lo, hi, start, x.offs[len(degs)], epb, threshold)
	want := planSelectiveRef(as, lo, hi, start, degs, epb, threshold)
	if got.streamAll != want.streamAll || got.blocksTotal != want.blocksTotal ||
		got.blocksRead != want.blocksRead || got.activeCount != want.activeCount {
		t.Errorf("plan = {streamAll %v, blocks %d of %d, active %d}, reference {streamAll %v, blocks %d of %d, active %d}",
			got.streamAll, got.blocksRead, got.blocksTotal, got.activeCount,
			want.streamAll, want.blocksRead, want.blocksTotal, want.activeCount)
	}
	if len(got.runs) != len(want.runs) {
		t.Fatalf("runs = %+v, reference %+v", got.runs, want.runs)
	}
	for i, r := range got.runs {
		if r != want.runs[i] {
			t.Errorf("run %d = %+v, reference %+v", i, r, want.runs[i])
		}
	}
	return got
}

func TestPlanSelectiveTable(t *testing.T) {
	cases := []struct {
		name      string
		lo        graph.VertexID
		start     int64
		degs      []uint32
		active    []graph.VertexID
		epb       int64
		threshold float64

		streamAll   bool
		blocksTotal int64
		blocksRead  int64
		runs        []selRun
	}{
		{
			// No set bits: every block is skipped, nothing is scheduled.
			name: "empty bitmap", degs: []uint32{3, 2, 3}, epb: 4, threshold: 0.25,
			blocksTotal: 2, blocksRead: 0, runs: nil,
		},
		{
			// Density at/above the threshold falls back to full streaming.
			name: "dense partition streams fully", degs: []uint32{2, 2, 2, 2},
			active: []graph.VertexID{0, 2}, epb: 4, threshold: 0.25,
			streamAll: true, blocksTotal: 2, blocksRead: 2,
			runs: []selRun{{lo: 0, hi: 4, startOff: 0, endOff: 8}},
		},
		{
			// One active vertex whose entries fill exactly one block: only
			// that block is read.
			name: "single active vertex below threshold", degs: []uint32{4, 4, 4, 4},
			active: []graph.VertexID{2}, epb: 4, threshold: 0.5,
			blocksTotal: 4, blocksRead: 1,
			runs: []selRun{{lo: 2, hi: 3, startOff: 8, endOff: 12}},
		},
		{
			// The active vertex's entry span straddles a block boundary:
			// both blocks are read, and the vertices sharing them are
			// scheduled (their updates are no-ops for frontier-safe
			// programs).
			name: "active span straddles block boundary", degs: []uint32{2, 4, 2},
			active: []graph.VertexID{1}, epb: 4, threshold: 0.5,
			blocksTotal: 2, blocksRead: 2,
			runs: []selRun{{lo: 0, hi: 3, startOff: 0, endOff: 8}},
		},
		{
			// A bit set only by message delivery (pending-message block):
			// the block holding the destination's entries is scheduled,
			// nothing else.
			name: "pending-message-only block", degs: []uint32{1, 1, 1, 1, 1, 1, 1, 1},
			active: []graph.VertexID{5}, epb: 2, threshold: 0.25,
			blocksTotal: 4, blocksRead: 1,
			runs: []selRun{{lo: 4, hi: 6, startOff: 4, endOff: 6}},
		},
		{
			// An active zero-degree vertex is still scheduled (its update
			// may send), but reads no blocks.
			name: "zero-degree active vertex", degs: []uint32{2, 0, 2},
			active: []graph.VertexID{1}, epb: 4, threshold: 0.5,
			blocksTotal: 1, blocksRead: 0,
			runs: []selRun{{lo: 1, hi: 2, startOff: 2, endOff: 2}},
		},
		{
			// Two separated frontiers yield two runs and two block reads.
			name: "two separated frontiers", degs: []uint32{4, 4, 4, 4, 4, 4},
			active: []graph.VertexID{0, 5}, epb: 4, threshold: 0.5,
			blocksTotal: 6, blocksRead: 2,
			runs: []selRun{
				{lo: 0, hi: 1, startOff: 0, endOff: 4},
				{lo: 5, hi: 6, startOff: 20, endOff: 24},
			},
		},
		{
			// Non-zero partition base and entry offset: runs carry absolute
			// vertex IDs and absolute entry offsets.
			name: "nonzero base and start", lo: 100, start: 1000, degs: []uint32{4, 4},
			active: []graph.VertexID{101}, epb: 4, threshold: 0.6,
			blocksTotal: 2, blocksRead: 1,
			runs: []selRun{{lo: 101, hi: 102, startOff: 1004, endOff: 1008}},
		},
	}
	var pl selPlanner // one planner for the whole table: its scratch is reused
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			as := newEmptyActiveSet(int(tc.lo) + len(tc.degs))
			for _, v := range tc.active {
				as.set(v)
			}
			sched := planBoth(t, &pl, as, tc.lo, tc.start, tc.degs, tc.epb, tc.threshold)
			if sched.streamAll != tc.streamAll {
				t.Errorf("streamAll = %v, want %v", sched.streamAll, tc.streamAll)
			}
			if sched.blocksTotal != tc.blocksTotal {
				t.Errorf("blocksTotal = %d, want %d", sched.blocksTotal, tc.blocksTotal)
			}
			if sched.blocksRead != tc.blocksRead {
				t.Errorf("blocksRead = %d, want %d", sched.blocksRead, tc.blocksRead)
			}
			if sched.activeCount != int64(len(tc.active)) {
				t.Errorf("activeCount = %d, want %d", sched.activeCount, len(tc.active))
			}
			if len(sched.runs) != len(tc.runs) {
				t.Fatalf("runs = %+v, want %+v", sched.runs, tc.runs)
			}
			for i, r := range sched.runs {
				if r != tc.runs[i] {
					t.Errorf("run %d = %+v, want %+v", i, r, tc.runs[i])
				}
			}
		})
	}
}

// TestPlanSelectiveMatchesReference: on random bitmaps over random degree
// sequences — zero-degree vertices anywhere, vertices spanning several
// blocks, partitions starting mid-block, densities on either side of the
// threshold — the planner's schedule is the two-pass reference's: same
// runs, same blocks read, same blocks total.
func TestPlanSelectiveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var pl selPlanner
	for trial := 0; trial < 3000 && !t.Failed(); trial++ {
		n := 1 + rng.Intn(120)
		epb := int64(1 + rng.Intn(9))
		lo := graph.VertexID(rng.Intn(130))
		start := int64(rng.Intn(40))
		shape := rng.Intn(4)
		degs := make([]uint32, n)
		for i := range degs {
			switch {
			case shape == 0: // degree-ordered, as DOS stores it
				degs[i] = uint32((n - 1 - i) * 6 / n)
			case rng.Intn(4) == 0:
				degs[i] = 0
			case rng.Intn(12) == 0: // spans several blocks
				degs[i] = uint32(epb) * uint32(2+rng.Intn(3))
			default:
				degs[i] = uint32(1 + rng.Intn(5))
			}
		}
		const threshold = 0.25
		as := newEmptyActiveSet(int(lo) + n + rng.Intn(70))
		var want int
		switch rng.Intn(3) {
		case 0:
			want = min(rng.Intn(4), n)
		case 1: // just under the threshold: the densest sparse plan
			want = n / 4
			for want > 0 && float64(want) >= threshold*float64(n) {
				want--
			}
		default:
			want = rng.Intn(n + 1)
		}
		for _, i := range rng.Perm(n)[:want] {
			as.set(lo + graph.VertexID(i))
		}
		// Bits outside the partition must not matter.
		if lo > 0 {
			as.set(lo - 1)
		}
		if int(lo)+n < len(as.words)*64 {
			as.set(lo + graph.VertexID(n))
		}
		sched := planBoth(t, &pl, as, lo, start, degs, epb, threshold)
		if t.Failed() {
			t.Logf("trial %d: lo %d start %d epb %d degs %v active %d: %+v", trial, lo, start, epb, degs, want, sched)
		}
	}
}

// runProg runs prog over g and returns the result plus the encoded
// vertex states, so comparisons are on the exact state bytes.
func runProg[V, M any](t *testing.T, g *dos.Graph, prog Program[V, M], vc graph.Codec[V], mc graph.Codec[M], opts Options) (Result, []byte) {
	t.Helper()
	eng, err := New[V, M](DOSLayout(g), prog, vc, mc, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := eng.Values()
	if err != nil {
		t.Fatal(err)
	}
	eng.Cleanup()
	return res, encodeStates(vc, vals)
}

// slowChainEdges builds a graph whose min-label run has a long sparse
// tail. Old IDs: source S=0, chain C_1..C_k = 1..k, sink T=k+1. S points
// at C_1 and each C_i at C_{i+1} (C_k at T); dummy edges to T give S
// degree k+2 and C_i degree i+1, so DOS (degree-descending) relabels
// S->0, C_k->1, ..., C_1->k, T->k+1 and every chain edge points one ID
// backward. A backward message never takes effect in the iteration it is
// sent, so the frontier advances exactly one vertex per iteration: ~k
// tail iterations each touching one chain vertex plus the sink.
func slowChainEdges(k int) []graph.Edge {
	sink := graph.VertexID(k + 1)
	var edges []graph.Edge
	edges = append(edges, graph.Edge{Src: 0, Dst: 1})
	for j := 0; j < k+1; j++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: sink})
	}
	for i := 1; i <= k; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
		for j := 0; j < i; j++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: sink})
		}
	}
	return edges
}

func TestSelectiveBFSTailBlockReduction(t *testing.T) {
	const k = 300
	edges := slowChainEdges(k)
	g := buildDOS(t, edges)
	base := Options{
		MemoryBudget:    budgetForPartitions(g, 8, 6, 64),
		DynamicMessages: true,
		MsgBufferBytes:  64,
	}

	// Both runs share the device: each reads the edges-file bytes it adds.
	edgesFile := DOSLayout(g).EdgesFile()
	edgeReads := func() int64 { return g.Device().FileStats()[edgesFile].ReadBytes }

	fullReg := obs.NewRegistry()
	fullOpts := base
	fullOpts.Obs = fullReg
	fullBytes := -edgeReads()
	fullRes, fullVals := runMinLabel(t, g, fullOpts)
	fullBytes += edgeReads()

	selReg, selTr := obs.NewRegistry(), obs.NewCollectingTracer(nil)
	selOpts := base
	selOpts.Obs, selOpts.Trace = selReg, selTr
	selOpts.SelectiveScheduling = true
	selBytes := -edgeReads()
	selRes, selVals := runMinLabel(t, g, selOpts)
	selBytes += edgeReads()

	// Both runs reach the same (correct) fixpoint.
	want := referenceMinLabels(g.NumVertices, relabeledEdges(t, g, edges))
	for i := range want {
		if fullVals[i].label != want[i] || selVals[i].label != want[i] {
			t.Fatalf("vertex %d: full %d, selective %d, want %d",
				i, fullVals[i].label, selVals[i].label, want[i])
		}
	}

	// The run must actually have the intended shape: several partitions
	// and a one-hop-per-iteration tail, or the comparison is vacuous.
	if fullRes.Partitions < 5 {
		t.Fatalf("partitions = %d; budget did not split the chain", fullRes.Partitions)
	}
	if fullRes.Iterations <= k {
		t.Fatalf("iterations = %d; chain did not produce a long tail", fullRes.Iterations)
	}

	t.Logf("partitions=%d iters full=%d sel=%d; edge bytes read full=%d sel=%d; blocks skipped=%d",
		fullRes.Partitions, fullRes.Iterations, selRes.Iterations,
		fullBytes, selBytes, selRes.BlocksSkipped)
	if fullBytes == 0 {
		t.Fatal("full run read no edges")
	}
	if selBytes*2 > fullBytes {
		t.Errorf("selective read %d edge bytes vs %d full: less than the 2x reduction the tail guarantees",
			selBytes, fullBytes)
	}
	if skipped := selReg.CounterValue("graphz_blocks_skipped_total"); skipped == 0 {
		t.Error("graphz_blocks_skipped_total = 0 on a sparse-tail run")
	}
	// A partition skipped whole records no worker span: some iteration
	// after Init must work fewer partitions than the plan has.
	worked := map[int]int{}
	for _, ev := range selTr.Events() {
		if ev.Stage == obs.StageWorker {
			worked[ev.Iter]++
		}
	}
	wholeSkips := 0
	for it := 1; it < selRes.Iterations; it++ {
		wholeSkips += selRes.Partitions - worked[it]
	}
	if worked[0] != selRes.Partitions || wholeSkips == 0 {
		t.Errorf("Init worked %d of %d partitions; %d whole-partition skips on a sparse-tail run",
			worked[0], selRes.Partitions, wholeSkips)
	}
	// The bitmap is accounted once selective scheduling is on.
	if mem := selReg.MemSamples(); len(mem) != selRes.Iterations || mem[0].BitmapBytes == 0 {
		t.Errorf("%d memory samples for %d iterations, bitmap not accounted", len(mem), selRes.Iterations)
	}
	if selRes.BlocksSkipped == 0 || selRes.BlocksSkipped != selReg.CounterValue("graphz_blocks_skipped_total") {
		t.Errorf("Result.BlocksSkipped = %d, registry %d",
			selRes.BlocksSkipped, selReg.CounterValue("graphz_blocks_skipped_total"))
	}
	if fullReg.CounterValue("graphz_blocks_scanned_total") != 0 {
		t.Error("full-streaming run incremented selective counters")
	}
}

// TestSparseIterationAllocs bounds what a sparse iteration allocates on the
// resident source: the planner's marks and runs and the Worker's range
// list are scratch the engine keeps, the resident entries need no stream,
// so one more iteration of a thin frontier costs the Worker pass's Context
// and nothing that grows with the graph. A per-iteration block-mark slice,
// degree array or range list coming back fails it.
func TestSparseIterationAllocs(t *testing.T) {
	const perIteration = 2
	const k = 400
	g := buildDOS(t, slowChainEdges(k)) // one frontier vertex per tail iteration
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{}, Options{
				MemoryBudget:        64 << 20,
				DynamicMessages:     true,
				SelectiveScheduling: true,
				MaxIterations:       iters,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil || res.Iterations != iters || res.Partitions != 1 || !eng.AdjacencyCached() {
				t.Fatalf("ran %d of %d iterations in %d partitions (cached %v): %v",
					res.Iterations, iters, res.Partitions, eng.AdjacencyCached(), err)
			}
			if res.UpdatesRun > 3*int64(g.NumVertices)+4*int64(iters) {
				t.Fatalf("%d updates in %d iterations: the tail is not sparse", res.UpdatesRun, iters)
			}
			eng.Cleanup()
		})
	}
	const short, long = 40, 360
	per := (allocs(long) - allocs(short)) / (long - short)
	t.Logf("a sparse iteration on the resident source allocates %.2f times", per)
	if per > perIteration {
		t.Errorf("a sparse iteration on the resident source allocates %.2f times, want <= %d", per, perIteration)
	}
}

// restlessPR is the shipped PageRank's shape: every vertex re-sends its
// rank every round, message or none, and nothing marks it active. It is
// not frontier-safe and does not say it is.
type restlessPR struct{}

func (restlessPR) Init(id graph.VertexID, deg uint32) prVal { return prVal{rank: 1} }

func (restlessPR) Update(ctx *Context[float64], id graph.VertexID, v *prVal, adj []graph.VertexID) {
	if ctx.Iteration() > 0 {
		v.rank = 0.15 + 0.85*v.acc
		v.acc = 0
	}
	for _, a := range adj {
		ctx.Send(a, v.rank/float64(len(adj)))
	}
}

func (restlessPR) Apply(v *prVal, m float64) { v.acc += m }

// TestSelectiveNeedsFrontierSafe holds DESIGN.md §9's invariant: a program
// that does not declare FrontierSafe is never scheduled selectively. On a
// bipartite graph — 2,000 sources with no in-edge, 200 to each of 10 sinks
// — the sources get no message, so a selective schedule would never run
// them again and every sink would keep their first-round votes (195.65 for
// the shipped PageRank, where 25.65 is right). New refuses instead, and so
// does the Section IV-E emulation, which re-sends every round too.
func TestSelectiveNeedsFrontierSafe(t *testing.T) {
	const sources, sinks = 2000, 10
	edges := make([]graph.Edge, sources)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(sinks + i), Dst: graph.VertexID(i % sinks)}
	}
	g := buildDOS(t, edges)
	opts := Options{MemoryBudget: 64 << 20, DynamicMessages: true, MaxIterations: 5}

	_, states := runProg[prVal, float64](t, g, restlessPR{}, prCodec{}, graph.Float64Codec{}, opts)
	o2n, err := g.OldToNew()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.15 + 0.85*(sources/sinks)*0.15 // 25.65: each source settles at 0.15
	for s := 0; s < sinks; s++ {
		if got := (prCodec{}).Decode(states[int(o2n[s])*16:]).rank; math.Abs(got-want) > 1e-9 {
			t.Fatalf("full streaming: sink %d ranks %v, want %v", s, got, want)
		}
	}

	opts.SelectiveScheduling = true
	if _, err := New[prVal, float64](DOSLayout(g), restlessPR{}, prCodec{}, graph.Float64Codec{}, opts); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("New over an undeclared program with SelectiveScheduling: err = %v, want ErrInvalidOptions", err)
	}
	inDeg, err := InDegrees(DOSLayout(g))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EmulateGraphChi[uint32, uint32](DOSLayout(g), chiMinProgram{},
		graph.Uint32Codec{}, graph.Uint32Codec{}, inDeg, opts); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("EmulateGraphChi with SelectiveScheduling: err = %v, want ErrInvalidOptions", err)
	}
}
