package graphzalgo

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"graphz/internal/algo/plain"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// fixture converts a generated graph and returns it with its relabeled
// edges (new-ID space) for the plain references.
type fixture struct {
	g     *dos.Graph
	adj   *plain.Adjacency
	edges []graph.Edge // relabeled
}

func newFixture(t *testing.T, edges []graph.Edge) *fixture {
	t.Helper()
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	o2n, err := g.OldToNew()
	if err != nil {
		t.Fatal(err)
	}
	rel := make([]graph.Edge, len(edges))
	for i, e := range edges {
		rel[i] = graph.Edge{Src: o2n[e.Src], Dst: o2n[e.Dst]}
	}
	return &fixture{g: g, adj: plain.BuildAdjacency(g.NumVertices, rel), edges: rel}
}

func bigOpts() core.Options {
	return core.Options{MemoryBudget: 64 << 20, DynamicMessages: true}
}

// tightOpts forces several partitions so cross-partition messaging is
// exercised.
func tightOpts(g *dos.Graph, vsize int) core.Options {
	vertexBytes := int64(g.NumVertices) * int64(vsize)
	return core.Options{
		// pipeline overhead (6 blocks) + index + a third of the
		// vertex state + message buffers
		MemoryBudget:    6*storage.DefaultBlockSize + g.IndexBytes() + vertexBytes/3 + 4*256,
		DynamicMessages: true,
		MsgBufferBytes:  256,
	}
}

func TestPageRankConvergesToPlainFixpoint(t *testing.T) {
	f := newFixture(t, gen.RMAT(9, 4000, gen.NaturalRMAT, 31))
	// The plain fixpoint after many synchronous iterations.
	want := plain.PageRank(f.adj, 100, 0.85)
	for _, opts := range []core.Options{bigOpts(), tightOpts(f.g, 8)} {
		res, ranks, err := PageRank(f.g, opts, 60, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 60 {
			t.Errorf("iterations = %d, want 60", res.Iterations)
		}
		for i := range want {
			got := float64(ranks[i])
			if math.Abs(got-want[i]) > 1e-3*(1+want[i]) {
				t.Fatalf("partitions=%d: rank[%d] = %v, want %v", res.Partitions, i, got, want[i])
			}
		}
	}
}

func TestPageRankMassSane(t *testing.T) {
	f := newFixture(t, gen.Zipf(500, 5000, 0.8, 32))
	_, ranks, err := PageRank(f.g, bigOpts(), 30, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range ranks {
		if r < 0.1499 {
			t.Fatalf("rank %v below the (1-d) floor", r)
		}
		sum += float64(r)
	}
	// Unnormalized PR sums to at most N (dangling mass leaks).
	if sum <= 0 || sum > float64(f.g.NumVertices)+1 {
		t.Errorf("total rank mass = %v for %d vertices", sum, f.g.NumVertices)
	}
}

// routing is the part of a Result that says what a run did with its
// messages. BFS and CC scatter through Context.SendAll; the values pinned
// below are the ones their per-edge Send loops produced on these fixtures
// before the switch, so the bulk route changed no count.
type routing struct {
	iterations, partitions                      int
	sent, inline, buffered, spilled, updatesRun int64
}

func routingOf(r core.Result) routing {
	return routing{r.Iterations, r.Partitions, r.MessagesSent, r.MessagesInline, r.MessagesBuffered, r.MessagesSpilled, r.UpdatesRun}
}

func TestBFSMatchesPlain(t *testing.T) {
	f := newFixture(t, gen.RMAT(9, 3000, gen.NaturalRMAT, 33))
	source := graph.VertexID(0) // highest-degree vertex in new-ID space
	want := plain.BFS(f.adj, source)
	for i, opts := range []core.Options{bigOpts(), tightOpts(f.g, 8)} {
		res, levels, err := BFS(f.g, opts, source)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if levels[i] != want[i] {
				t.Fatalf("partitions=%d: level[%d] = %d, want %d", res.Partitions, i, levels[i], want[i])
			}
		}
		wantRouting := []routing{
			{3, 1, 2894, 2894, 0, 0, 1161},
			{4, 3, 2894, 2141, 753, 704, 1548},
		}[i]
		if got := routingOf(res); got != wantRouting {
			t.Errorf("routing = %+v, want %+v", got, wantRouting)
		}
	}
}

func TestBFSUnreachedStaysUnreached(t *testing.T) {
	// Two disjoint edges; source reaches only one side.
	f := newFixture(t, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})
	_, levels, err := BFS(f.g, bigOpts(), 0)
	if err != nil {
		t.Fatal(err)
	}
	reached := 0
	for _, l := range levels {
		if l != Unreached {
			reached++
		}
	}
	if reached != 2 {
		t.Errorf("reached %d vertices, want 2 (source + one neighbor)", reached)
	}
}

// TestSelectiveUpdatesTrackFrontier: selective scheduling reads blocks but
// updates bits. A BFS across a 64x64 grid is dozens of iterations of a
// thin frontier over one adjacency block; with selective scheduling on the
// run is the full-streaming run — same levels, same iterations, same
// messages — except that Update runs on the vertices whose bit is set, not
// on every vertex whose block was read: a few per vertex over the whole
// run (each is updated when reached and once more for having marked itself
// active), where streaming makes one per vertex per iteration.
func TestSelectiveUpdatesTrackFrontier(t *testing.T) {
	f := newFixture(t, gen.Grid(64, 64))
	o2n, err := f.g.OldToNew()
	if err != nil {
		t.Fatal(err)
	}
	source := o2n[32*64+32] // the centre: in vertex order the frontier advances about a row per iteration
	want := plain.BFS(f.adj, source)
	full, fullLevels, err := BFS(f.g, bigOpts(), source)
	if err != nil {
		t.Fatal(err)
	}
	opts := bigOpts()
	opts.SelectiveScheduling = true
	sel, selLevels, err := BFS(f.g, opts, source)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if fullLevels[i] != want[i] || selLevels[i] != want[i] {
			t.Fatalf("level[%d] = %d streaming, %d selective, want %d", i, fullLevels[i], selLevels[i], want[i])
		}
	}
	if sel.Iterations != full.Iterations || sel.MessagesSent != full.MessagesSent {
		t.Errorf("selective ran %d iterations / %d messages, streaming %d / %d",
			sel.Iterations, sel.MessagesSent, full.Iterations, full.MessagesSent)
	}
	if sel.Iterations < 50 || sel.BlocksScanned == 0 {
		t.Fatalf("want a long scheduled run, got %+v", sel)
	}
	v := int64(f.g.NumVertices)
	if sel.UpdatesRun > 4*v {
		t.Errorf("selective ran %d updates over %d vertices, want at most 4 per vertex (streaming: %d)",
			sel.UpdatesRun, v, full.UpdatesRun)
	}
	if full.UpdatesRun != int64(full.Iterations)*v {
		t.Errorf("streaming ran %d updates, want %d iterations x %d vertices", full.UpdatesRun, full.Iterations, v)
	}
}

func TestConnectedComponentsMatchesPlain(t *testing.T) {
	// Symmetrize for weakly-connected components, as the harness does.
	base := gen.RMAT(8, 1200, gen.NaturalRMAT, 34)
	var edges []graph.Edge
	for _, e := range base {
		edges = append(edges, e, graph.Edge{Src: e.Dst, Dst: e.Src})
	}
	f := newFixture(t, edges)
	want := plain.ConnectedComponents(f.adj)
	for i, opts := range []core.Options{bigOpts(), tightOpts(f.g, 8)} {
		res, labels, err := ConnectedComponents(f.g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if labels[i] != want[i] {
				t.Fatalf("partitions=%d: label[%d] = %d, want %d", res.Partitions, i, labels[i], want[i])
			}
		}
		wantRouting := []routing{
			{3, 1, 4551, 4551, 0, 0, 603},
			{4, 2, 4551, 3853, 698, 608, 804},
		}[i]
		if got := routingOf(res); got != wantRouting {
			t.Errorf("routing = %+v, want %+v", got, wantRouting)
		}
	}
}

func TestSSSPMatchesPlain(t *testing.T) {
	f := newFixture(t, gen.RMAT(9, 3000, gen.NaturalRMAT, 35))
	source := graph.VertexID(0)
	want := plain.SSSP(f.adj, source)
	for _, opts := range []core.Options{bigOpts(), tightOpts(f.g, 8)} {
		res, dists, err := SSSP(f.g, opts, source)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			wi, gi := float64(want[i]), float64(dists[i])
			if math.IsInf(wi, 1) != math.IsInf(gi, 1) {
				t.Fatalf("partitions=%d: dist[%d] = %v, want %v", res.Partitions, i, gi, wi)
			}
			if !math.IsInf(wi, 1) && math.Abs(gi-wi) > 1e-4 {
				t.Fatalf("partitions=%d: dist[%d] = %v, want %v", res.Partitions, i, gi, wi)
			}
		}
	}
}

func TestSSSPTriangleInequalitySpot(t *testing.T) {
	// dist(source->v) <= dist(source->u) + w(u,v) for every edge.
	f := newFixture(t, gen.Zipf(200, 2000, 0.7, 36))
	_, dists, err := SSSP(f.g, bigOpts(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range f.edges {
		du, dv := float64(dists[e.Src]), float64(dists[e.Dst])
		if math.IsInf(du, 1) {
			continue
		}
		if dv > du+float64(graph.EdgeWeight(e.Src, e.Dst))+1e-4 {
			t.Fatalf("relaxation missed on edge %v: %v > %v + w", e, dv, du)
		}
	}
}

func TestBeliefPropagationSanity(t *testing.T) {
	f := newFixture(t, gen.RMAT(8, 1500, gen.NaturalRMAT, 37))
	res, marg, err := BeliefPropagation(f.g, bigOpts(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 10 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	for i, p := range marg {
		if !(p >= 0 && p <= 1) || math.IsNaN(float64(p)) {
			t.Fatalf("marginal[%d] = %v outside [0,1]", i, p)
		}
	}
	// Deterministic.
	_, marg2, err := BeliefPropagation(f.g, bigOpts(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range marg {
		if marg[i] != marg2[i] {
			t.Fatal("BP not deterministic")
		}
	}
	// Messages must actually move beliefs away from the prior-only
	// marginals for connected vertices.
	moved := false
	prior := plain.BeliefPropagation(plain.BuildAdjacency(f.g.NumVertices, nil), 1)
	for i := range marg {
		if math.Abs(float64(marg[i]-prior[i])) > 1e-3 {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("BP marginals identical to priors; messages had no effect")
	}
}

func TestRandomWalkConservation(t *testing.T) {
	f := newFixture(t, gen.RMAT(8, 1500, gen.NaturalRMAT, 38))
	const perVertex = 4
	total := uint32(f.g.NumVertices) * perVertex

	// Single partition, dynamic messages: every send applies
	// immediately, so conservation is exact.
	final, err := RandomWalkFinalWalkers(f.g, bigOpts(), 5, perVertex)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint32
	for _, w := range final {
		sum += w
	}
	if sum != total {
		t.Fatalf("walkers not conserved: %d, want %d", sum, total)
	}

	// Multi-partition: a MaxIterations stop can leave messages (and
	// their walkers) in flight in the spilled message store, so the
	// landed count is a lower bound that must never exceed the total.
	final, err = RandomWalkFinalWalkers(f.g, tightOpts(f.g, 12), 5, perVertex)
	if err != nil {
		t.Fatal(err)
	}
	sum = 0
	for _, w := range final {
		sum += w
	}
	if sum > total {
		t.Fatalf("walkers multiplied: %d > %d", sum, total)
	}
	if sum < total/2 {
		t.Fatalf("too many walkers in flight: %d of %d landed", sum, total)
	}
}

func TestRandomWalkVisits(t *testing.T) {
	f := newFixture(t, gen.RMAT(8, 1500, gen.NaturalRMAT, 39))
	res, visits, err := RandomWalk(f.g, bigOpts(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 5 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	var sum int64
	for _, v := range visits {
		sum += int64(v)
	}
	// Every walker contributes at least one visit per iteration it is
	// somewhere with walkers>0; at minimum the first iteration counts
	// everyone once.
	if sum < int64(f.g.NumVertices)*2 {
		t.Errorf("total visits = %d, want >= %d", sum, f.g.NumVertices*2)
	}
	// Determinism.
	_, visits2, err := RandomWalk(f.g, bigOpts(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range visits {
		if visits[i] != visits2[i] {
			t.Fatal("random walk not deterministic")
		}
	}
}

func TestAblationLayoutsAgree(t *testing.T) {
	// The same program over DOS and CSR layouts must compute the same
	// answer (IDs differ; compare by original ID).
	edges := gen.RMAT(8, 1200, gen.NaturalRMAT, 40)
	f := newFixture(t, edges)

	dev2 := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev2, "raw", edges); err != nil {
		t.Fatal(err)
	}
	cg, err := buildCSR(dev2, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}

	source := graph.VertexID(0)
	_, dosLevels, err := BFS(f.g, bigOpts(), source)
	if err != nil {
		t.Fatal(err)
	}
	n2o, err := f.g.NewToOld()
	if err != nil {
		t.Fatal(err)
	}
	// CSR keeps original IDs; the DOS source's original ID is n2o[0].
	_, csrLevels, err := BFSLayout(cg, bigOpts(), n2o[source])
	if err != nil {
		t.Fatal(err)
	}
	for newID, old := range n2o {
		if dosLevels[newID] != csrLevels[old] {
			t.Fatalf("vertex old=%d: DOS level %d, CSR level %d", old, dosLevels[newID], csrLevels[old])
		}
	}
}

// checkDelegate holds one program's ApplyAll to its definition: over
// seeded random resident ranges [lo, lo+n) — and none at all, dynamic
// messages off — and destination lists mixing resident IDs with IDs below
// lo and at and past lo+n, duplicates and the empty list, the states it
// leaves are byte-equal to a copy on which Apply was called for each
// resident destination in list order, and it returns that count.
func checkDelegate[V, M any](t *testing.T, prog core.Program[V, M], vc graph.Codec[V], state func(*rand.Rand) V, msg func(*rand.Rand) M) {
	t.Helper()
	bulk, ok := prog.(core.BulkApplier[V, M])
	if !ok {
		t.Fatalf("%T has no ApplyAll", prog)
	}
	encode := func(vs []V) []byte {
		b := make([]byte, len(vs)*vc.Size())
		for i, v := range vs {
			vc.Encode(b[i*vc.Size():], v)
		}
		return b
	}
	rng := rand.New(rand.NewSource(90))
	for c := 0; c < 300; c++ {
		n, lo := rng.Intn(40), graph.VertexID(rng.Intn(100))
		var got, want []V // nil when nothing is resident
		if c%10 == 0 {
			n, lo = 0, 0
		}
		for i := 0; i < n; i++ {
			got = append(got, state(rng))
		}
		want = append(want, got...)
		dsts := make([]graph.VertexID, rng.Intn(60))
		if c%7 == 0 {
			dsts = nil
		}
		for i := range dsts {
			switch rng.Intn(4) {
			case 0: // anywhere, mostly outside
				dsts[i] = graph.VertexID(rng.Intn(200))
			case 1: // the last resident ID and the first past it
				dsts[i] = lo + graph.VertexID(n) - graph.VertexID(rng.Intn(2))
			case 2: // a duplicate of an earlier destination
				dsts[i] = dsts[rng.Intn(i+1)]
			default:
				dsts[i] = lo + graph.VertexID(rng.Intn(n+1))
			}
		}
		m, applied := msg(rng), 0
		for _, dst := range dsts {
			if dst >= lo && int(dst-lo) < n {
				prog.Apply(&want[dst-lo], m)
				applied++
			}
		}
		if k := bulk.ApplyAll(got, lo, dsts, m); k != applied {
			t.Fatalf("%T.ApplyAll over [%d,%d) and %v returned %d, want %d", prog, lo, int(lo)+n, dsts, k, applied)
		}
		if !bytes.Equal(encode(got), encode(want)) {
			t.Fatalf("%T.ApplyAll over [%d,%d) and %v left %v, Apply in a loop leaves %v", prog, lo, int(lo)+n, dsts, got, want)
		}
	}
}

// TestApplyAllIsApplyInALoop covers every program that has the optional
// bulk form; one that gains it joins by adding a row.
func TestApplyAllIsApplyInALoop(t *testing.T) {
	u32 := func(rng *rand.Rand) uint32 { return uint32(rng.Intn(50)) } // small: messages both below and above B
	u32Pair := func(rng *rand.Rand) graph.U32Pair { return graph.U32Pair{A: u32(rng), B: u32(rng)} }
	f32Pair := func(rng *rand.Rand) graph.F32Pair { return graph.F32Pair{A: rng.Float32(), B: rng.Float32()} }
	for _, row := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"PageRank", func(t *testing.T) {
			checkDelegate[prVal, float32](t, prProgram{damping: 0.85}, graph.F32PairCodec, f32Pair, (*rand.Rand).Float32)
		}},
		{"BFS", func(t *testing.T) {
			checkDelegate[bfsVal, uint32](t, bfsProgram{source: 3}, graph.U32PairCodec, u32Pair, u32)
		}},
		{"CC", func(t *testing.T) {
			checkDelegate[ccVal, uint32](t, ccProgram{}, graph.U32PairCodec, u32Pair, u32)
		}},
	} {
		t.Run(row.name, row.check)
	}
}
