package graphzalgo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// messages — except that Update runs on the vertices a message changed,
// not on every vertex whose block was read: once per reached vertex over
// the whole run on one partition, where a vertex is scheduled when its
// Apply reports a change and a level sent back to a parent schedules
// nothing, and one per vertex per iteration streaming. A path, reached one
// vertex an iteration from one end, holds the same count.
func TestSelectiveUpdatesTrackFrontier(t *testing.T) {
	var path []graph.Edge
	for v := graph.VertexID(0); v+1 < 300; v++ {
		path = append(path, graph.Edge{Src: v, Dst: v + 1}, graph.Edge{Src: v + 1, Dst: v})
	}
	for _, c := range []struct {
		edges    []graph.Edge
		source   graph.VertexID // old ID
		minIters int
	}{{gen.Grid(64, 64), 32*64 + 32, 50}, {path, 299, 299}} {
		f := newFixture(t, c.edges)
		o2n, err := f.g.OldToNew()
		if err != nil {
			t.Fatal(err)
		}
		source := o2n[c.source]
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
		reached := int64(0)
		for i := range want {
			if fullLevels[i] != want[i] || selLevels[i] != want[i] {
				t.Fatalf("level[%d] = %d streaming, %d selective, want %d", i, fullLevels[i], selLevels[i], want[i])
			}
			reached += int64(b2i(want[i] != Unreached))
		}
		if sel.Iterations != full.Iterations || sel.MessagesSent != full.MessagesSent {
			t.Errorf("selective ran %d iterations / %d messages, streaming %d / %d",
				sel.Iterations, sel.MessagesSent, full.Iterations, full.MessagesSent)
		}
		if sel.Iterations < c.minIters || sel.BlocksScanned == 0 {
			t.Fatalf("want a long scheduled run, got %+v", sel)
		}
		v := int64(f.g.NumVertices)
		if sel.UpdatesRun != reached {
			t.Errorf("selective ran %d updates, want one per reached vertex, %d (streaming: %d)", sel.UpdatesRun, reached, full.UpdatesRun)
		}
		if full.UpdatesRun != int64(full.Iterations)*v {
			t.Errorf("streaming ran %d updates, want %d iterations x %d vertices", full.UpdatesRun, full.Iterations, v)
		}
	}
}

// TestSelectiveMatchesFullScan: SSSP and CC scheduled selectively — a vertex
// scheduled by a message that changed it, never by itself — leave the full
// scan's values byte for byte, in fewer updates: on one partition, where a
// mark follows Apply's report, in partitions, where a resident record is
// marked when sent and a drained one when delivered, and under static
// messages, all drained.
func TestSelectiveMatchesFullScan(t *testing.T) {
	base := gen.RMAT(9, 3000, gen.NaturalRMAT, 36)
	var edges []graph.Edge
	for _, e := range base {
		edges = append(edges, e, graph.Edge{Src: e.Dst, Dst: e.Src})
	}
	f := newFixture(t, edges)
	static := tightOpts(f.g, 8)
	static.DynamicMessages = false
	runs := map[string]func(core.Options) (core.Result, []uint32, error){
		"SSSP": func(opts core.Options) (core.Result, []uint32, error) {
			res, dists, err := SSSP(f.g, opts, 0)
			bits := make([]uint32, len(dists))
			for i, d := range dists {
				bits[i] = math.Float32bits(d)
			}
			return res, bits, err
		},
		"CC": func(opts core.Options) (core.Result, []uint32, error) { return ConnectedComponents(f.g, opts) },
	}
	for name, run := range runs {
		for _, opts := range []core.Options{bigOpts(), tightOpts(f.g, 8), static} {
			full, want, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.SelectiveScheduling = true
			sel, got, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) || sel.UpdatesRun >= full.UpdatesRun || sel.Partitions != full.Partitions {
				t.Errorf("%s in %d partitions (dynamic %v): selective values equal %v, %d updates; full scan %d",
					name, full.Partitions, opts.DynamicMessages, slices.Equal(got, want), sel.UpdatesRun, full.UpdatesRun)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
	final, err := finalWalkers(f.g, bigOpts(), 5, perVertex)
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
	final, err = finalWalkers(f.g, tightOpts(f.g, 12), 5, perVertex)
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

// finalWalkers runs RandomWalk and returns where the walkers sit after the
// last step (the Incoming field).
func finalWalkers(g *dos.Graph, opts core.Options, iterations int, walkersPerVertex uint32) ([]uint32, error) {
	opts.MaxIterations = iterations
	_, vals, err := runLayout[rwVal, uint32](core.DOSLayout(g), rwProgram{walkersPerVertex: walkersPerVertex}, rwValCodec{}, graph.Uint32Codec{}, opts)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, len(vals))
	for i, v := range vals {
		out[i] = v.Incoming
	}
	return out, nil
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

// checkDelegate holds each of one program's ApplyAll, ApplyEach and
// ApplyRecords to its definition — the delegates it has, which are the ones
// want names: over seeded random resident ranges [lo, lo+n) — and none at
// all, dynamic messages off — and destination lists mixing resident IDs
// with IDs below lo and at and past lo+n, duplicates and the empty list,
// the states each leaves are byte-equal to a copy on which Apply was called
// for each resident destination in list order — with ApplyAll's one
// message, ApplyEach's own for each destination, or each record's own,
// decoded by mc — and each returns that count. mc is the program's message
// codec type, the one its runLayout call encodes with, so a delegate that
// decodes another way fails here.
func checkDelegate[V, M any](t *testing.T, prog core.Program[V, M], want string, vc graph.Codec[V], mc graph.Codec[M], state func(*rand.Rand) V, msg func(*rand.Rand) M) {
	t.Helper()
	bulk, ok := prog.(core.BulkApplier[V, M])
	each, ok2 := prog.(core.EachApplier[V, M])
	records, ok3 := prog.(core.RecordApplier[V, M])
	if has := fmt.Sprintf("ApplyAll:%v ApplyEach:%v ApplyRecords:%v", ok, ok2, ok3); has != want {
		t.Fatalf("%T has %s, want %s", prog, has, want)
	}
	if !ok && !ok2 && !ok3 {
		return
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
		drained, drainWant := slices.Clone(got), slices.Clone(got)
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
		ms, eachGot, eachWant := make([]M, len(dsts)), slices.Clone(got), slices.Clone(got)
		for k, dst := range dsts {
			if ms[k] = msg(rng); dst >= lo && int(dst-lo) < n {
				prog.Apply(&want[dst-lo], m)
				prog.Apply(&eachWant[dst-lo], ms[k])
				applied++
			}
		}
		if ok {
			if k := bulk.ApplyAll(nil, got, lo, dsts, m); k != applied || !bytes.Equal(encode(got), encode(want)) {
				t.Fatalf("%T.ApplyAll over [%d,%d) and %v returned %d (want %d), left %v; Apply in a loop leaves %v",
					prog, lo, int(lo)+n, dsts, k, applied, got, want)
			}
		}
		if ok2 {
			if k := each.ApplyEach(nil, eachGot, lo, dsts, ms); k != applied || !bytes.Equal(encode(eachGot), encode(eachWant)) {
				t.Fatalf("%T.ApplyEach over [%d,%d), %v and %v returned %d (want %d), left %v; Apply in a loop leaves %v",
					prog, lo, int(lo)+n, dsts, ms, k, applied, eachGot, eachWant)
			}
		}
		if !ok3 {
			continue
		}
		var recs []byte
		for _, dst := range dsts {
			m := msg(rng)
			recs = binary.LittleEndian.AppendUint32(recs, uint32(dst))
			recs = append(recs, make([]byte, mc.Size())...)
			mc.Encode(recs[len(recs)-mc.Size():], m)
			if dst >= lo && int(dst-lo) < n {
				prog.Apply(&drainWant[dst-lo], mc.Decode(recs[len(recs)-mc.Size():]))
			}
		}
		if k := records.ApplyRecords(drained, lo, recs, 4+mc.Size()); k != applied || !bytes.Equal(encode(drained), encode(drainWant)) {
			t.Fatalf("%T.ApplyRecords over [%d,%d) and %v returned %d (want %d), left %v; Decode and Apply in a loop leave %v",
				prog, lo, int(lo)+n, dsts, k, applied, drained, drainWant)
		}
	}
}

// TestApplyAllIsApplyInALoop covers every program that scatters through
// SendAll or SendEach, with the optional forms it has; one that gains or
// loses one changes its row. CC has none: its row holds the engine's
// applyLoop to Apply in a loop. SSSP's row also holds its SendEach form of
// Update to the Send loop it replaced.
func TestApplyAllIsApplyInALoop(t *testing.T) {
	const scatter, bulk, none = "ApplyAll:true ApplyEach:false ApplyRecords:true", "ApplyAll:true ApplyEach:false ApplyRecords:false", "ApplyAll:false ApplyEach:false ApplyRecords:false"
	const perEdge = "ApplyAll:false ApplyEach:true ApplyRecords:false"
	u32 := func(rng *rand.Rand) uint32 { return uint32(rng.Intn(50)) } // small: messages both below and above B
	u32Pair := func(rng *rand.Rand) graph.U32Pair { return graph.U32Pair{A: u32(rng), B: u32(rng)} }
	f32Pair := func(rng *rand.Rand) graph.F32Pair { return graph.F32Pair{A: rng.Float32(), B: rng.Float32()} }
	for _, row := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"PageRank", func(t *testing.T) {
			checkDelegate[prVal, float32](t, prProgram{damping: 0.85}, scatter, graph.F32PairCodec, prMsgCodec{}, f32Pair, (*rand.Rand).Float32)
			checkRunDelegate[prVal, float32](t, prProgram{damping: 0.85}, graph.F32PairCodec, prMsgCodec{})
		}},
		{"BFS", func(t *testing.T) {
			checkDelegate[bfsVal, uint32](t, bfsProgram{source: 3}, bulk, graph.U32PairCodec, graph.Uint32Codec{}, u32Pair, u32)
			checkRunDelegate[bfsVal, uint32](t, bfsProgram{source: 3}, graph.U32PairCodec, graph.Uint32Codec{})
			checkApplyLoop[bfsVal, uint32](t, bfsProgram{source: 3}, graph.U32PairCodec, graph.Uint32Codec{})
		}},
		{"CC", func(t *testing.T) {
			checkDelegate[ccVal, uint32](t, ccProgram{}, none, graph.U32PairCodec, graph.Uint32Codec{}, u32Pair, u32)
			checkApplyLoop[ccVal, uint32](t, ccProgram{}, graph.U32PairCodec, graph.Uint32Codec{})
		}},
		{"SSSP", func(t *testing.T) {
			checkDelegate[ssspVal, float32](t, ssspProgram{source: 3}, perEdge, graph.F32PairCodec, graph.Float32Codec{}, f32Pair, (*rand.Rand).Float32)
			checkRunDelegate[ssspVal, float32](t, ssspProgram{source: 3}, graph.F32PairCodec, graph.Float32Codec{})
			checkSendEach(t)
		}},
	} {
		t.Run(row.name, row.check)
	}
}

// checkApplyLoop holds the appliers a program runs with — its own
// delegates, and the engine's applyLoop over its Apply where it has none —
// to Apply in a loop written out here (byHand): run on one partition, where
// SendAll applies as it is called, and in partitions, where records are
// applied in place and at the drains, the two leave the same Result and
// state bytes.
func checkApplyLoop[V, M any](t *testing.T, prog core.Program[V, M], vc graph.Codec[V], mc graph.Codec[M]) {
	t.Helper()
	f := newFixture(t, gen.RMAT(8, 1500, gen.NaturalRMAT, 5))
	for _, opts := range []core.Options{bigOpts(), tightOpts(f.g, vc.Size())} {
		var res [2]core.Result
		var states [2][]byte
		for i, p := range []core.Program[V, M]{prog, byHand[V, M]{prog, mc.Decode}} {
			r, vals, err := runLayout(core.DOSLayout(f.g), p, vc, mc, opts)
			if err != nil {
				t.Fatal(err)
			}
			res[i], states[i] = r, make([]byte, len(vals)*vc.Size())
			for j, v := range vals {
				vc.Encode(states[i][j*vc.Size():], v)
			}
		}
		if res[0] != res[1] || !bytes.Equal(states[0], states[1]) || (res[0].Partitions == 1) != (opts.MemoryBudget == bigOpts().MemoryBudget) {
			t.Fatalf("%T, %d partitions: as run %+v, Apply in a loop %+v; states equal %v",
				prog, res[0].Partitions, res[0], res[1], bytes.Equal(states[0], states[1]))
		}
	}
}

// byHand runs a program with its own optional forms hidden, and an ApplyAll
// and an ApplyRecords that call its Apply in a loop of their own (marking
// nothing: checkApplyLoop's runs are not selective).
type byHand[V, M any] struct {
	core.Program[V, M]
	decode func([]byte) M
}

func (p byHand[V, M]) ApplyAll(_ *core.Frontier, vs []V, lo graph.VertexID, dsts []graph.VertexID, m M) (applied int) {
	for _, dst := range dsts {
		if dst >= lo && int(dst-lo) < len(vs) {
			p.Apply(&vs[dst-lo], m)
			applied++
		}
	}
	return applied
}

func (p byHand[V, M]) ApplyRecords(vs []V, lo graph.VertexID, recs []byte, rec int) (applied int) {
	for off := 0; off+rec <= len(recs); off += rec {
		if dst := graph.VertexID(binary.LittleEndian.Uint32(recs[off:])); dst >= lo && int(dst-lo) < len(vs) {
			p.Apply(&vs[dst-lo], p.decode(recs[off+4:]))
			applied++
		}
	}
	return applied
}

// checkRunDelegate holds one program's UpdateRun to its definition, Update
// in a loop: the engine runs the program with the method and with it
// hidden — on one partition, where SendAll takes its one hop, and in
// partitions under static messages, both over an adjacency streamed in
// 7-entry blocks, so windows cut degree runs and vertices straddle blocks —
// and each pair of runs leaves the same Result and state bytes and makes
// the same SendAll calls (on one partition, where ApplyAll sees them), with
// the same messages, in the same order.
func checkRunDelegate[V, M any](t *testing.T, prog core.Program[V, M], vc graph.Codec[V], mc graph.Codec[M]) {
	t.Helper()
	runs, ok := prog.(core.RunUpdater[V, M])
	if !ok {
		t.Fatalf("%T lacks UpdateRun", prog)
	}
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", gen.RMAT(8, 1500, gen.NaturalRMAT, 5)); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev, Codec: storage.CodecGroupVarint, BlockEntries: 7}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	static := tightOpts(g, vc.Size())
	static.MemoryBudget += g.BlockTableBytes()
	static.DynamicMessages = false
	for _, opts := range []core.Options{{MemoryBudget: 64 << 20, DynamicMessages: true}, static} {
		opts.StreamAdjacency, opts.MaxIterations = true, 6
		var logs [2][]string
		var res [2]core.Result
		var states [2][]byte
		calls := 0
		for i := range logs {
			var p core.Program[V, M] = sendLog[V, M]{prog, &logs[i]}
			if i == 1 {
				p = runLog[V, M]{sendLog[V, M]{prog, &logs[i]}, runs, &calls}
			}
			var vals []V
			if res[i], vals, err = runLayout(core.DOSLayout(g), p, vc, mc, opts); err != nil {
				t.Fatal(err)
			}
			states[i] = make([]byte, len(vals)*vc.Size())
			for j, v := range vals {
				vc.Encode(states[i][j*vc.Size():], v)
			}
		}
		if calls == 0 || res[1] != res[0] || !bytes.Equal(states[1], states[0]) || !slices.Equal(logs[1], logs[0]) {
			t.Fatalf("%T, %d partitions: with UpdateRun (%d calls) %+v and %d SendAlls, Update in a loop %+v and %d; states equal %v, sends equal %v",
				prog, res[0].Partitions, calls, res[1], len(logs[1]), res[0], len(logs[0]), bytes.Equal(states[1], states[0]), slices.Equal(logs[1], logs[0]))
		}
	}
}

// sendLog runs a program with its own UpdateRun, ApplyAll and ApplyEach
// hidden, and an ApplyAll and an ApplyEach that log every SendAll and
// SendEach reaching them — destinations and messages — then apply by Apply.
type sendLog[V, M any] struct {
	core.Program[V, M]
	log *[]string
}

func (p sendLog[V, M]) ApplyAll(f *core.Frontier, vs []V, lo graph.VertexID, dsts []graph.VertexID, m M) int {
	*p.log = append(*p.log, fmt.Sprint(dsts, m))
	return core.ApplyAll(f, vs, lo, dsts, m, p.Apply)
}

func (p sendLog[V, M]) ApplyEach(f *core.Frontier, vs []V, lo graph.VertexID, dsts []graph.VertexID, ms []M) int {
	*p.log = append(*p.log, fmt.Sprint(dsts, ms))
	return core.ApplyEach(f, vs, lo, dsts, ms, p.Apply)
}

// runLog is sendLog with the program's UpdateRun, counted; the Update it
// calls sends through the engine, so sendLog's ApplyAll logs its sends too.
type runLog[V, M any] struct {
	sendLog[V, M]
	runs  core.RunUpdater[V, M]
	calls *int
}

func (p runLog[V, M]) UpdateRun(ctx *core.Context[M], lo graph.VertexID, vs []V, adj []graph.VertexID, deg uint32) {
	*p.calls++
	p.runs.UpdateRun(ctx, lo, vs, adj, deg)
}

// checkSendEach holds SSSP's Update, which computes its messages into
// Messages' scratch and hands them to SendEach, to the Send per edge it
// replaced (ssspSendUpdate): run on one partition, partitioned under dynamic
// messages and partitioned under static ones, the two forms leave the same
// Result and state bytes and apply the same (destination, message) pairs
// in the same order — on one partition, the order they were sent in.
func checkSendEach(t *testing.T) {
	f := newFixture(t, gen.RMAT(8, 1500, gen.NaturalRMAT, 5))
	dynamic, static := tightOpts(f.g, 12), tightOpts(f.g, 12)
	static.DynamicMessages = false
	for _, opts := range []core.Options{bigOpts(), dynamic, static} {
		var logs [2][]string
		var res [2]core.Result
		var states [2][]byte
		for i, update := range []func(*core.Context[float32], graph.VertexID, *ssspVal, []graph.VertexID){ssspProgram{}.Update, ssspSendUpdate} {
			p := sendTrace{ssspProgram{source: 3}, update, &logs[i]}
			r, vals, err := runLayout[traceVal, float32](core.DOSLayout(f.g), p, traceCodec{}, graph.Float32Codec{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			res[i] = r
			for _, v := range vals {
				states[i] = traceCodec{}.append(states[i], v)
			}
		}
		if res[0] != res[1] || !bytes.Equal(states[0], states[1]) || !slices.Equal(logs[0], logs[1]) || len(logs[0]) == 0 ||
			(res[0].Partitions == 1) != (opts.MemoryBudget == bigOpts().MemoryBudget) {
			t.Fatalf("SendEach: %+v, %d applies; Send per edge: %+v, %d; states equal %v, applies equal %v",
				res[0], len(logs[0]), res[1], len(logs[1]), bytes.Equal(states[0], states[1]), slices.Equal(logs[0], logs[1]))
		}
	}
}

// ssspSendUpdate is SSSP's Update as it was written before SendEach: a Send
// per edge, each message computed as it is sent.
func ssspSendUpdate(ctx *core.Context[float32], id graph.VertexID, v *ssspVal, adj []graph.VertexID) {
	if v.B < v.A {
		v.A = v.B
		for _, a := range adj {
			ctx.Send(a, v.A+graph.EdgeWeight(id, a))
		}
	}
}

// sendTrace runs SSSP by the update given, on states tagged with their
// vertex's ID, and logs every (destination, message) pair its Apply folds
// in.
type sendTrace struct {
	sssp   ssspProgram
	update func(*core.Context[float32], graph.VertexID, *ssspVal, []graph.VertexID)
	log    *[]string
}

type traceVal struct {
	id graph.VertexID
	v  ssspVal
}

func (p sendTrace) Init(id graph.VertexID, deg uint32) traceVal {
	return traceVal{id, p.sssp.Init(id, deg)}
}

func (p sendTrace) Update(ctx *core.Context[float32], id graph.VertexID, v *traceVal, adj []graph.VertexID) {
	p.update(ctx, id, &v.v, adj)
}

func (p sendTrace) Apply(v *traceVal, m float32) bool {
	*p.log = append(*p.log, fmt.Sprint(v.id, m))
	return p.sssp.Apply(&v.v, m)
}

type traceCodec struct{}

func (traceCodec) Size() int { return 12 }

func (traceCodec) Encode(b []byte, v traceVal) {
	binary.LittleEndian.PutUint32(b, uint32(v.id))
	graph.F32PairCodec.Encode(b[4:], v.v)
}

func (traceCodec) Decode(b []byte) traceVal {
	return traceVal{graph.VertexID(binary.LittleEndian.Uint32(b)), graph.F32PairCodec.Decode(b[4:])}
}

func (c traceCodec) append(b []byte, v traceVal) []byte {
	b = append(b, make([]byte, c.Size())...)
	c.Encode(b[len(b)-c.Size():], v)
	return b
}
