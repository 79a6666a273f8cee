package integration

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"graphz/internal/algo/plain"
	"graphz/internal/bench"
	"graphz/internal/checkpoint"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/lattice"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// FuzzEngineOracle is the engine's correctness oracle (DESIGN.md §6). A
// uint64 decodes into one point of the reachable lattice — a graph, its
// format, one of the six algorithms run as graphz-run runs it, the options a
// budget and a caller select, and a fault plan — and every draw is held to
// the same invariants: the in-memory reference's answer, a ledger that adds
// up and views that agree with it, the budget kept, a crashed run resumed to
// the uninterrupted run's bytes, typed errors and no leaked files. The seed
// corpus (oracleSeeds and the named regression seeds under
// testdata/fuzz/FuzzEngineOracle) replays on every go test and reaches every
// legal pair of axis values (TestOracleCorpusCoverage); -fuzz draws more.
func FuzzEngineOracle(f *testing.F) {
	for _, s := range oracleSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		d := decode(seed)
		t.Logf("draw %#x: %v", seed, d)
		d.run(t)
	})
}

// The axes of a draw, each a list of values, and the rules: the pairs of
// axis values no draw combines — more than one partition of a graph of at
// most one vertex, or around the default 64 KiB message buffers (a budget
// paying for P of those on graphs this small plans fewer); a block size for
// the unblocked v1 format; a crash without checkpoints to resume from, and a
// transient fault or a full device with.
var oracle = &lattice.Lattice{
	Axes: []lattice.Axis{
		{Name: "graph", Values: []string{"rmat", "zipf", "er", "grid", "chain", "star", "empty", "selfloop", "rmat+loops+dups", "frontier"}},
		{Name: "format", Values: []string{"v1", "raw", "groupvarint"}},
		{Name: "block", Values: []string{"default", "64", "512"}},
		{Name: "algo", Values: []string{"PR", "BFS", "CC", "SSSP", "BP", "RW"}},
		{Name: "parts", Values: []string{"1", "2", "3", "4", "5"}},
		{Name: "buf", Values: []string{"default", "64", "256"}},
		{Name: "messages", Values: []string{"dynamic", "static"}},
		{Name: "selective", Values: []string{"unasked", "asked"}},
		{Name: "adjacency", Values: []string{"tight", "room", "pinned", "shared", "pinned+shared"}},
		{Name: "checkpoint", Values: []string{"off", "1", "2"}},
		{Name: "fault", Values: []string{"crash", "fail", "full"}},
	},
	Rules: []lattice.Rule{
		{A: "graph", B: "parts", OK: func(g, p string) bool { return p == "1" || (g != "empty" && g != "selfloop") }},
		{A: "buf", B: "parts", OK: func(b, p string) bool { return p == "1" || b != "default" }},
		{A: "format", B: "block", OK: func(f, b string) bool { return f != "v1" || b == "default" }},
		{A: "checkpoint", B: "fault", OK: func(c, f string) bool { return (c == "off") != (f == "crash") }},
	},
}

// TestOracleCorpusCoverage decodes the seed corpus without running it: every
// pair of axis values the rules allow meets in some draw, so a new axis value
// fails here until seeds reach it; and some draw crashes a sparse plan, so a
// resume is shown to restore a bitmap that skips blocks.
func TestOracleCorpusCoverage(t *testing.T) {
	var points []lattice.Point
	sparseCrash := false
	for _, seed := range oracleSeeds {
		d := decode(seed)
		sparseCrash = sparseCrash || d.sparse() && d.Val("fault") == "crash"
		points = append(points, d.Point)
	}
	for _, pair := range oracle.Uncovered(points) {
		t.Errorf("no seed draws %s", pair)
	}
	if !sparseCrash {
		t.Error("no seed crashes a sparse draw")
	}
}

// A draw is one lattice point; Pick drives its fault: the operation struck,
// the slack a full device leaves, the torn write's prefix.
type draw struct {
	seed uint64
	lattice.Point
}

func decode(seed uint64) draw { return draw{seed, oracle.Decode(seed)} }

// sparse reports whether the draw's selective plan must skip blocks: under
// static messages BFS, CC and SSSP on the paths advance at most a vertex a
// path and partition per iteration, leaving most of their 64-entry blocks
// without an active vertex. (Dynamic messages cross a path pointing up the
// IDs in one iteration.)
func (d draw) sparse() bool {
	return d.Val("graph") == "chain" && d.Val("block") == "64" && d.Val("messages") == "static" &&
		d.Val("selective") == "asked" && bench.Algo(d.Val("algo")).FrontierSafe()
}

// edges generates the draw's graph, at most ~4 K edges. Every shape but the
// two tiny ones names more than 700 vertices, which makes the budget sized
// for P ≤ 5 partitions around 256-byte buffers plan exactly P.
func (d draw) edges() []graph.Edge {
	var es []graph.Edge
	switch d.Val("graph") {
	case "rmat":
		return gen.RMAT(11, 4000, gen.NaturalRMAT, d.seed)
	case "zipf":
		return gen.Zipf(1000, 4000, 0.9, d.seed)
	case "er":
		return gen.ErdosRenyi(1000, 4000, d.seed)
	case "grid":
		return gen.Grid(28, 28)
	case "chain": // ten 80-vertex paths, every other one pointing down the IDs
		for v := graph.VertexID(0); v < 800; v++ {
			if odd := v / 80 % 2; v%80 != 79 {
				es = append(es, graph.Edge{Src: v + odd, Dst: v + 1 - odd})
			}
		}
	case "star": // a hub pointing at 800 leaves, the odd ones pointing back
		for v := graph.VertexID(1); v <= 800; v++ {
			if es = append(es, graph.Edge{Src: 0, Dst: v}); v%2 == 1 {
				es = append(es, graph.Edge{Src: v, Dst: 0})
			}
		}
	case "selfloop":
		es = []graph.Edge{{Src: 7, Dst: 7}}
	case "rmat+loops+dups":
		es = gen.RMAT(11, 3000, gen.NaturalRMAT, d.seed)
		for i := 0; i < 300; i++ {
			es = append(es, graph.Edge{Src: es[i].Src, Dst: es[i].Src}, es[2*i])
		}
	case "frontier": // an R-MAT core, 200 sources into it, 200 sinks out of it, and an ID no edge names
		es = gen.RMAT(10, 2500, gen.NaturalRMAT, d.seed)
		for i := graph.VertexID(0); i < 200; i++ {
			es = append(es, graph.Edge{Src: 1025 + i, Dst: i * 97 % 1024}, graph.Edge{Src: i * 89 % 1024, Dst: 1225 + i})
		}
	}
	return es
}

// A trial is a draw with its graph converted: the files every run copies
// onto a device of its own, the references' adjacency (the layout's IDs and
// adjacency order) and the options graphz-run would build.
type trial struct {
	draw
	algo    bench.Algo
	staging *storage.Device
	files   []string
	adj     *plain.Adjacency
	edges   int64
	parts   int64
	opts    core.Options
}

// maxIters is graphz-run's cap on BFS, CC and SSSP; params are its other
// parameters: source 0, ten iterations, the benchmark's damping and walkers.
const maxIters = 200

var params = bench.AlgoParams{Iterations: 10, Damping: 0.85, Walkers: 1}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func (d draw) run(t *testing.T) {
	x := trial{draw: d, algo: bench.Algo(d.Val("algo")), staging: storage.NewDevice(storage.NullDevice, storage.Options{})}
	codec, _ := storage.CodecByName(d.Val("format"))
	var block int64
	fmt.Sscan(d.Val("block"), &block)
	must(t, graph.WriteEdges(x.staging, "raw", d.edges()))
	g, err := dos.Convert(dos.ConvertConfig{Dev: x.staging, Codec: codec, BlockEntries: block, RemoveInput: true}, "raw", "g")
	must(t, err)
	entries, err := g.Entries(0, g.NumEdges)
	must(t, err)
	x.files, x.edges, x.adj = x.staging.List(), g.NumEdges, &plain.Adjacency{N: g.NumVertices, Out: make([][]graph.VertexID, g.NumVertices)}
	for v := range x.adj.Out {
		for deg, _ := g.Degree(graph.VertexID(v)); len(x.adj.Out[v]) < int(deg); {
			e, err := entries.Next()
			must(t, err)
			x.adj.Out[v] = append(x.adj.Out[v], e)
		}
	}

	// The smallest budget that plans the drawn partitions around the drawn
	// buffers (TestResidencyBoundary's sum; plan wants a byte for the states
	// even of an empty graph), plus four bytes an edge when it has room.
	buf := map[string]int{"default": 64 << 10, "64": 64, "256": 256}[d.Val("buf")]
	vsize := map[bench.Algo]int64{bench.PR: 8, bench.BFS: 8, bench.CC: 8, bench.SSSP: 8, bench.BP: 16, bench.RW: 12}[x.algo]
	n, adj := int64(x.adj.N), d.Val("adjacency")
	x.parts = int64(d.Pos("parts") + 1)
	x.opts = core.Options{
		MemoryBudget: 6*storage.DefaultBlockSize + g.IndexBytes() + g.BlockTableBytes() +
			x.parts*int64(buf) + max((n+x.parts-1)/x.parts*vsize, 1),
		DynamicMessages:     d.Val("messages") == "dynamic",
		MsgBufferBytes:      buf,
		MaxIterations:       maxIters,
		SelectiveScheduling: d.Val("selective") == "asked",
		StreamAdjacency:     strings.HasPrefix(adj, "pinned"),
	}
	if adj == "room" || adj == "pinned" {
		x.opts.MemoryBudget += 4 * x.edges
	}
	if x.opts.SelectiveScheduling && !x.algo.FrontierSafe() {
		// Not frontier-safe: New refuses, and the draw runs unscheduled.
		if _, _, err := x.exec(t, x.staging, x.opts, nil); !errors.Is(err, core.ErrInvalidOptions) {
			t.Fatalf("selective %s: err = %v, want core.ErrInvalidOptions", x.algo, err)
		}
		x.opts.SelectiveScheduling = false
	}

	// The uninterrupted run, on an armed device, counts the operations the
	// fault plan draws from. It takes no checkpoints: taking them changes
	// nothing but the durability counters. For a crash draw the device fails
	// every removal, which a run survives (they are counted, not returned),
	// so that the crash strikes before the removals that close the run;
	// otherwise it injects nothing, and the run removes what it wrote.
	crash := d.Val("fault") == "crash"
	ref := x.device(t, 0)
	ref.Arm(storage.FaultPlan{FailRemoves: crash})
	res, want, err := x.exec(t, ref.Device, x.opts, obs.NewRegistry())
	must(t, err)
	if got := ref.List(); !crash && !slices.Equal(got, x.files) {
		t.Errorf("the device holds %v after the run, only the graph's %v before", got, x.files)
	}
	x.checkAnswer(t, res, want)
	if x.opts.DynamicMessages {
		// Ordered dynamic messages apply a vertex's messages in send order
		// whatever the plan, so one roomy partition computes the same bits
		// (the references' tolerance would hide an apply out of order) and,
		// unscheduled, in no more iterations: nothing there waits for a
		// drain (a selective schedule can shift a turn either way).
		roomy := core.Options{MemoryBudget: 64 << 20, DynamicMessages: true, SelectiveScheduling: x.opts.SelectiveScheduling}
		if one, vals, err := x.exec(t, x.device(t, 0).Device, roomy, nil); err != nil || differ(vals, want) >= 0 ||
			!roomy.SelectiveScheduling && one.Iterations > res.Iterations {
			t.Fatalf("one partition: %v, %d iterations, first value apart %d; the draw's plan: %d iterations", err, one.Iterations, differ(vals, want), res.Iterations)
		}
	}

	// The same run under the drawn fault.
	plan, capacity := storage.FaultPlan{Seed: d.Pick}, int64(0)
	switch op := 1 + int64(d.Pick%uint64(max(ref.Ops()-ref.Stats().RemoveErrors, 1))); d.Val("fault") {
	case "crash":
		plan.CrashAtOp, plan.TornWrites = op, true
	case "fail":
		plan.FailAtOps = []int64{op}
	case "full":
		capacity = x.staging.Used() + int64(d.Pick%uint64(2*n*vsize+1))
	}
	fd := x.device(t, capacity)
	fd.Arm(plan)
	opts := x.opts
	if d.Val("checkpoint") != "off" {
		opts.Checkpoint = core.CheckpointOptions{Dir: t.TempDir(), Every: d.Pos("checkpoint")}
	}
	got, vals, err := x.exec(t, fd.Device, opts, obs.NewRegistry())
	if crash && err == nil {
		t.Fatalf("the device crashed at operation %d of the run's %d, yet the run finished", plan.CrashAtOp, ref.Ops())
	}
	if crash && typed(err) {
		// Reboot and resume: a new process, with its own shared adjacency.
		x.checkLeftovers(t, fd.Device)
		fd.Disarm()
		opts.Checkpoint.Resume = true
		got, vals, err = x.exec(t, fd.Device, opts, obs.NewRegistry())
	}
	x.checkLeftovers(t, fd.Device)
	if err != nil {
		if !typed(err) || opts.Checkpoint.Resume {
			t.Fatalf("faulted run: %v", err)
		}
		return // a transient fault or a full device may fail the run, typed
	}
	if logical(got) != logical(res) || differ(vals, want) >= 0 {
		t.Errorf("faulted run %+v, uninterrupted %+v; first value apart %d", got, res, differ(vals, want))
	}
	if opts.Checkpoint.Dir != "" {
		// Resumed once more, the finished run's last checkpoint restores the
		// final states without iterating.
		fd.Disarm()
		opts.Checkpoint.Resume = true
		if got, vals, err = x.exec(t, fd.Device, opts, obs.NewRegistry()); err != nil || logical(got) != logical(res) || differ(vals, want) >= 0 {
			t.Errorf("converged restore: %v, %+v, uninterrupted %+v; first value apart %d", err, got, res, differ(vals, want))
		}
	}
}

// device is a fault-injecting device holding a copy of the graph's files.
func (x *trial) device(t *testing.T, capacity int64) *storage.FaultDevice {
	fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{Capacity: capacity})
	for _, name := range x.files {
		data, err := storage.ReadAllFile(x.staging, name)
		must(t, err)
		must(t, storage.WriteAll(fd.Device, name, data))
	}
	return fd
}

// exec loads the graph off dev and runs the draw's algorithm on it through
// bench.ExecAlgo; with a registry, a finished run is checked too. A
// resident adjacency reads the edges file at most once, for its fill.
func (x *trial) exec(t *testing.T, dev *storage.Device, opts core.Options, reg *obs.Registry) (core.Result, []float64, error) {
	g, err := dos.Load(dev, "g")
	if err != nil {
		return core.Result{}, nil, err
	}
	if strings.HasSuffix(x.Val("adjacency"), "shared") {
		opts.SharedAdjacency = core.NewSharedGraph(g).Adjacency()
	}
	opts.Obs = reg
	before := dev.FileStats()[g.EdgesFile()].ReadBytes
	res, vals, err := bench.ExecAlgo(x.algo, core.DOSLayout(g), opts, params)
	read := dev.FileStats()[g.EdgesFile()].ReadBytes - before
	if size, _ := dev.Size(g.EdgesFile()); err == nil && res.ResidentAdjacency && read > size {
		t.Errorf("a resident adjacency read %d bytes of a %d-byte edges file", read, size)
	}
	if err == nil && reg != nil {
		x.checkRun(t, res, reg, opts)
	}
	return res, vals, err
}

// checkRun holds one finished run to the invariants that need no second
// run: the ledger adds up, the plan is the one the draw sized, and the
// registry, its rows and its memory timeline agree with the Result.
func (x *trial) checkRun(t *testing.T, res core.Result, reg *obs.Registry, opts core.Options) {
	t.Helper()
	edge, n := x.edges > 0, int64(x.adj.N)
	if res.MessagesInline+res.MessagesBuffered != res.MessagesSent || res.MessagesSpilled > res.MessagesBuffered ||
		(res.MessagesSent > 0) != edge || res.UpdatesRun > int64(res.Iterations)*n || !opts.SelectiveScheduling && res.UpdatesRun != int64(res.Iterations)*n {
		t.Errorf("sent %d = inline %d + buffered %d ⊇ spilled %d; %d updates of %d vertices in %d iterations",
			res.MessagesSent, res.MessagesInline, res.MessagesBuffered, res.MessagesSpilled, res.UpdatesRun, n, res.Iterations)
	}
	// PR, BP and RW run their ten iterations; BFS, CC and SSSP converge
	// before the cap, every message applied.
	if limit := map[bool]int{true: maxIters, false: params.Iterations}[x.algo.FrontierSafe()]; res.Iterations > limit ||
		res.Iterations < limit && (res.MessagesApplied != res.MessagesSent || !x.algo.FrontierSafe() && edge) {
		t.Errorf("stopped after %d of %d iterations with %d of %d messages applied", res.Iterations, limit, res.MessagesApplied, res.MessagesSent)
	}
	exact := x.Val("adjacency") != "room" && x.Val("adjacency") != "pinned"
	if p := int64(res.Partitions); p > x.parts || exact && p != x.parts || res.SemiExternal != (p == 1) ||
		res.SemiExternal && opts.DynamicMessages && res.MessagesBuffered+res.MessagesSpilled != 0 {
		t.Errorf("%d partitions (semi-external %v, %d buffered) of a budget sized for %d", p, res.SemiExternal, res.MessagesBuffered, x.parts)
	}
	switch adj := x.Val("adjacency"); {
	case strings.HasSuffix(adj, "shared") && !res.ResidentAdjacency, adj == "pinned" && res.ResidentAdjacency,
		adj == "tight" && edge && res.ResidentAdjacency, adj == "room" && int64(res.Partitions) == x.parts && !res.ResidentAdjacency:
		t.Errorf("%s adjacency, yet resident = %v", adj, res.ResidentAdjacency)
	}
	if scheduled := res.BlocksScanned+res.BlocksSkipped > 0; scheduled != (opts.SelectiveScheduling && edge) {
		t.Errorf("selective %v, yet the planner scanned %d blocks and skipped %d", opts.SelectiveScheduling, res.BlocksScanned, res.BlocksSkipped)
	}
	// The registry's counters and the sum of its rows (a resumed process's
	// rows cover its own iterations only) against the ledger.
	ledger := [5]int64{res.MessagesInline, res.MessagesBuffered, res.MessagesSpilled, res.BlocksSkipped, res.BlocksScanned}
	var counters [5]int64
	var rows [4]int64 // the rows hold no scanned-block count
	for i, name := range []string{"messages_inline", "messages_buffered", "messages_spilled", "blocks_skipped", "blocks_scanned"} {
		counters[i] = reg.CounterValue("graphz_" + name + "_total")
	}
	for _, r := range reg.Iters() {
		for i, v := range [4]int64{r.MessagesInline, r.MessagesBuffered, r.MessagesSpilled, r.BlocksSkipped} {
			rows[i] += v
		}
	}
	if counters != ledger || !opts.Checkpoint.Resume && (rows != [4]int64(ledger[:4]) || len(reg.Iters()) != res.Iterations) {
		t.Errorf("ledger %v, registry %v, %d rows for %d iterations summing to %v", ledger, counters, len(reg.Iters()), res.Iterations, rows)
	}
	// Every process of a sparse draw that iterates — a resumed one too,
	// planning from the bitmap it restored — leaves blocks unread.
	if x.sparse() && len(reg.Iters()) > 0 && rows[3] == 0 {
		t.Errorf("a sparse frontier, yet %d iterations skipped no block", len(reg.Iters()))
	}
	for _, m := range reg.MemSamples() {
		if m.ResidentBytes()-m.BitmapBytes > opts.MemoryBudget {
			t.Errorf("iteration %d holds %d accounted bytes of a %d-byte budget", m.Iteration, m.ResidentBytes()-m.BitmapBytes, opts.MemoryBudget)
		}
	}
}

// checkAnswer holds the uninterrupted run's values to an in-memory reference
// in the layout's ID space and adjacency order: BFS, CC and SSSP to plain's
// exactly; PageRank within 2e-3·(1+x) of the in-order execution
// (plain.PageRankInOrder under dynamic messages), BP's marginals within 1e-3
// of it and RW's visits exactly.
func (x *trial) checkAnswer(t *testing.T, res core.Result, got []float64) {
	t.Helper()
	if x.algo.FrontierSafe() && res.Iterations >= maxIters {
		t.Fatalf("%s did not converge in %d iterations", x.algo, res.Iterations)
	}
	type state = []float64
	var want []float64
	tol := 0.0
	switch x.algo {
	case bench.BFS:
		want = widen(plain.BFS(x.adj, params.Source))
	case bench.CC:
		want = widen(plain.ConnectedComponents(x.adj))
	case bench.SSSP:
		want = widen(plain.SSSP(x.adj, params.Source))
	case bench.PR: // rank, votes
		d := float64(params.Damping)
		want, tol = plain.PageRankInOrder(x.adj, params.Iterations, d), 2e-3
		if !x.opts.DynamicMessages {
			// PageRankInOrder has no partitions, so it cannot defer a vote
			// to the next iteration as static messages do: this copy of it
			// in inOrder's terms can, and is used only here.
			want = x.inOrder(res.Partitions, 2, func(it int, u graph.VertexID, s state, send func(graph.VertexID, state)) {
				if s[0] = 1; it > 0 {
					s[0], s[1] = 1-d+d*s[1], 0
				}
				for _, v := range x.adj.Out[u] {
					send(v, state{0, s[0] / float64(len(x.adj.Out[u]))})
				}
			}, 0)
		}
	case bench.BP: // beliefs, accumulators
		want, tol = x.inOrder(res.Partitions, 4, func(it int, u graph.VertexID, s state, send func(graph.VertexID, state)) {
			p0, p1 := prior(u)
			if n0, n1 := p0+s[2], p1+s[3]; it == 0 {
				s[0], s[1] = p0, p1
			} else {
				s[0], s[1] = 0.5*(n0-logAdd(n0, n1))+0.5*s[0], 0.5*(n1-logAdd(n0, n1))+0.5*s[1]
				s[0], s[1], s[2], s[3] = s[0]-logAdd(s[0], s[1]), s[1]-logAdd(s[0], s[1]), 0, 0
			}
			for _, v := range x.adj.Out[u] {
				c := graph.EdgeCoupling(u, v)
				m0, m1 := logAdd(s[0]+math.Log(c), s[1]+math.Log(1-c)), logAdd(s[0]+math.Log(1-c), s[1]+math.Log(c))
				send(v, state{0, 0, m0 - logAdd(m0, m1), m1 - logAdd(m0, m1)})
			}
		}, 1), 1e-3
		for v, b1 := range want {
			want[v] = math.Exp(b1) // the marginal of state 1
		}
	case bench.RW: // walkers, incoming, visits
		want = x.inOrder(res.Partitions, 3, func(it int, u graph.VertexID, s state, send func(graph.VertexID, state)) {
			if s[0] = float64(params.Walkers); it > 0 {
				s[0], s[1] = s[1], 0
			}
			out, w := x.adj.Out[u], uint64(s[0])
			if s[2] += s[0]; len(out) == 0 {
				s[1] += s[0]
			}
			for i, v := range out {
				n := uint64(len(out))
				k := w / n // and one more for the w%n neighbors from a rotated offset on
				if (uint64(i)+n-rotation(u, it)%n)%n < w%n {
					k++
				}
				if k > 0 {
					send(v, state{0, float64(k), 0})
				}
			}
		}, 2)
	}
	if len(got) != len(want) {
		t.Fatalf("%d values for %d vertices", len(got), len(want))
	}
	for v, w := range want {
		if math.Abs(got[v]-w) > tol*(1+math.Abs(w)) && got[v] != w {
			t.Fatalf("vertex %d = %v, want %v", v, got[v], w)
		}
	}
}

// inOrder executes a program in memory in the engine's order — the paper's
// sequential equivalence: vertices update in ascending ID order, and a
// message is added to its destination's state at once, except that under
// static messages one whose sender's partition does not precede its
// destination's waits for that partition's next load, the start of the next
// iteration here. It returns field out of every final state.
func (x *trial) inOrder(parts, width int, update func(it int, u graph.VertexID, s []float64, send func(graph.VertexID, []float64)), out int) []float64 {
	s := make([][]float64, x.adj.N)
	for v := range s {
		s[v] = make([]float64, width)
	}
	part := func(v int) int { return ((v+1)*parts - 1) / x.adj.N } // the last p with p·N/parts <= v
	var late []func()
	for it := 0; it < params.Iterations; it++ {
		for _, deliver := range late {
			deliver()
		}
		late = late[:0]
		for u := range s {
			update(it, graph.VertexID(u), s[u], func(v graph.VertexID, m []float64) {
				deliver := func() {
					for i := range m {
						s[v][i] += m[i]
					}
				}
				if !x.opts.DynamicMessages && part(u) >= part(int(v)) {
					late = append(late, deliver)
				} else {
					deliver()
				}
			})
		}
	}
	vals := make([]float64, x.adj.N)
	for v := range s {
		vals[v] = s[v][out]
	}
	return vals
}

// prior, logAdd and rotation are BP's vertex priors and log-sum and RW's
// remainder rotation, as internal/algo/plain computes them.
func prior(id graph.VertexID) (float64, float64) {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	p := 0.2 + 0.6*float64((x^x>>31)&0xFFFFFF)/float64(1<<24)
	return math.Log(p), math.Log(1 - p)
}

func logAdd(x, y float64) float64 { return max(x, y) + math.Log1p(math.Exp(min(x, y)-max(x, y))) }

func rotation(id graph.VertexID, it int) uint64 {
	x := uint64(id)<<32 ^ uint64(uint32(it))
	x = (x ^ x>>33) * 0xff51afd7ed558ccd
	x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

func widen[T uint32 | float32](xs []T) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// differ returns the first vertex whose values' bits differ, or -1.
func differ(a, b []float64) int {
	for v := range max(len(a), len(b)) {
		if v >= min(len(a), len(b)) || math.Float64bits(a[v]) != math.Float64bits(b[v]) {
			return v
		}
	}
	return -1
}

// logical strips from a Result what one process of a run counts for itself
// — its checkpoints, codec work and stage times — leaving the logical run
// a resumed or repeated run must reproduce exactly.
func logical(r core.Result) core.Result {
	r.Checkpoints, r.CheckpointBytes, r.CheckpointTime = 0, 0, 0
	r.CodecBytesRaw, r.CodecBytesEncoded, r.DecodeTime = 0, 0, 0
	r.Stages = obs.StageTimes{}
	return r
}

// typed reports whether a failed run says why with a sentinel a caller can
// match.
func typed(err error) bool {
	for _, s := range []error{core.ErrInvalidOptions, core.ErrMemoryBudget, storage.ErrInjected, storage.ErrCrashed,
		storage.ErrNoSpace, checkpoint.ErrNoCheckpoint, checkpoint.ErrTruncated, checkpoint.ErrBadManifest,
		checkpoint.ErrCRCMismatch, checkpoint.ErrVersionTooNew, checkpoint.ErrLayoutMismatch, checkpoint.ErrConfigMismatch} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// checkLeftovers: whatever a run did, the device holds the graph's files
// and, at most, runtime files under the engine's name.
func (x *trial) checkLeftovers(t *testing.T, dev *storage.Device) {
	t.Helper()
	for _, f := range dev.List() {
		if !strings.HasPrefix(f, "graphz.") && !slices.Contains(x.files, f) {
			t.Errorf("the run left %q", f)
		}
	}
}

// oracleSeeds is the seed corpus: a greedy pairwise cover of the legal axis
// values (TestOracleCorpusCoverage holds it to that), then two sparse crash
// draws, SSSP and BFS over three partitions, whose crashes strike in the
// sparse middle of their 80 iterations.
var oracleSeeds = []uint64{
	0, 27, 378, 4087, 8573, 1675, 6918, 24091, 8930, 1409, 4800, 9106,
	309, 26153, 20722, 24104, 3816, 15309, 23878, 468, 3956, 24019, 3096, 3919,
	3901, 7752, 4130, 384, 27434, 21107, 978, 1825, 6814, 8730, 76, 2248,
	44, 252, 1308, 410, 1913, 22, 58, 151, 195, 207, 398, 863,
	1125, 1624, 28, 210, 3, 15, 19, 40, 56, 62, 77, 88,
	109, 113, 489, 5214,
}
