package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"graphz/internal/checkpoint"
	"graphz/internal/csr"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/lattice"
	"graphz/internal/obs"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// FuzzEngineSeams is internal/core's seam oracle (DESIGN.md §6, "The seam
// draw"): FuzzEngineOracle one level down, where the ledger, the planner,
// the prefetcher, the drain and the staging buffer are in reach. A uint64
// decodes into one lattice point (seams); every draw runs the engine by
// all three routes of SendAll and SendEach and holds the runs to each
// other, to one roomy partition and to the views of the ledger, then drives
// the components directly at drawn sizes the runs cannot reach. The corpus
// (seamSeeds and the named regression seeds under
// testdata/fuzz/FuzzEngineSeams) replays on every go test and reaches every
// legal pair of axis values (TestSeamCorpusCoverage); -fuzz draws more.
func FuzzEngineSeams(f *testing.F) {
	for _, s := range seamSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		d := decodeSeams(seed)
		t.Logf("draw %#x: %v", seed, d)
		a := d.run(t)
		// The reference run's memory timeline: a sample an iteration, each
		// with the planner's fixed floor (the vertex index, the codec's
		// offset table, the pipeline), the budget, P buffers, the run's own
		// resident adjacency at four bytes an entry (a shared one is its
		// owner's) and, outside the budget, the bitmap of a selective run with
		// its summary, every word of the two.
		l, eng, own := a.eng.layout, a.eng, a.res.ResidentAdjacency && a.shared == nil
		bitmap := 0
		if eng.sel != nil {
			bitmap = 8*cap(eng.sel.words) + cap(eng.sel.sum)
		}
		if mem := a.reg.MemSamples(); len(mem) != a.res.Iterations {
			t.Errorf("%d memory samples for %d iterations", len(mem), a.res.Iterations)
		}
		for _, m := range a.reg.MemSamples() {
			if m.IndexBytes != l.IndexBytes() || m.TableBytes != eng.adj.TableBytes() || m.PipelineBytes != pipelineOverheadBytes ||
				m.BudgetBytes != eng.opts.MemoryBudget || m.MsgBufferBytes != int64(eng.NumPartitions()*cap(eng.msgBufs[0])) ||
				m.AdjCacheBytes != 4*l.NumEdges()*int64(b2i(own)) || m.BitmapBytes != int64(bitmap) {
				t.Errorf("iteration %d samples %+v: index %d, table %d, pipeline %d, own adjacency %v, selective %v",
					m.Iteration, m, l.IndexBytes(), eng.adj.TableBytes(), pipelineOverheadBytes, own, eng.sel != nil)
			}
		}
		t.Run("plan", func(t *testing.T) { d.plan(t, eng) })
		t.Run("prefetch", d.prefetch)
		t.Run("drain", d.drainRound)
	})
}

// step runs one process of a draw as a subtest and stops the draw when it
// fails: the next process is held to it.
func step(t *testing.T, name string, f func(t *testing.T)) {
	if !t.Run(name, f) {
		t.FailNow()
	}
}

// seams is the lattice of a draw: its axes, and the pairs of axis values no
// draw combines — more than one partition of a graph of at most one vertex,
// or around the default 64 KiB buffers (a budget paying for P of those plans
// fewer); a block size for the unblocked v1 format.
var seams = &lattice.Lattice{
	Axes: []lattice.Axis{
		{Name: "route", Values: []string{"own", "noBulk", "sendLoop"}},
		{Name: "record", Values: []string{"8", "6"}},
		{Name: "graph", Values: []string{"rmat", "ring", "star", "path", "empty", "selfloop"}},
		{Name: "format", Values: []string{"v1", "raw", "groupvarint"}},
		{Name: "block", Values: []string{"default", "1", "2", "64"}},
		{Name: "parts", Values: []string{"1", "2", "3", "4", "5"}},
		{Name: "buf", Values: []string{"min", "64", "256", "default"}},
		{Name: "messages", Values: []string{"dynamic", "static"}},
		{Name: "selective", Values: []string{"off", "on"}},
		{Name: "adjacency", Values: []string{"roomy", "pinned", "tight", "shared"}},
		{Name: "checkpoint", Values: []string{"off", "1", "2"}},
		{Name: "observe", Values: []string{"all", "registry", "tracer", "clock", "none"}},
	},
	Rules: []lattice.Rule{
		{A: "graph", B: "parts", OK: func(g, p string) bool { return p == "1" || (g != "empty" && g != "selfloop") }},
		{A: "buf", B: "parts", OK: func(b, p string) bool { return p == "1" || b != "default" }},
		{A: "format", B: "block", OK: func(f, b string) bool { return f != "v1" || b == "default" }},
	},
}

// TestSeamCorpusCoverage decodes the seed corpus without running it: every
// pair of axis values the rules allow meets in some draw, some draw's drain
// carries a 6-byte record across a device-block boundary, some draw plans a
// sparse schedule at 1-entry blocks and some streams one, and some draw's
// prefetcher fills its queue, then stops, and some other's reads on.
func TestSeamCorpusCoverage(t *testing.T) {
	var points []lattice.Point
	straddle, sparse, streamed, queueStop, queueRead := false, false, false, false, false
	for _, seed := range seamSeeds {
		d := decodeSeams(seed)
		straddle = straddle || d.straddles()
		sparse = sparse || d.sparse() && d.Val("block") == "1"
		streamed = streamed || d.sparse() && d.Val("adjacency") == "tight"
		if _, _, _, fetched, fault, stop := d.prefetchShape(); fillsQueue(fetched, fault) {
			queueStop, queueRead = queueStop || stop == 0, queueRead || stop > 0
		}
		points = append(points, d.Point)
	}
	for _, pair := range seams.Uncovered(points) {
		t.Errorf("no seed draws %s", pair)
	}
	if !straddle {
		t.Error("no seed drains a record that straddles two device blocks")
	}
	if !sparse || !streamed {
		t.Errorf("no seed plans a sparse schedule at 1-entry blocks (%v) or streams one (%v)", sparse, streamed)
	}
	if !queueStop || !queueRead {
		t.Errorf("no seed fills the prefetch queue, then stops the stream (%v) or reads on (%v)", queueStop, queueRead)
	}
}

// A seamDraw is one lattice point; Pick drives everything the axes leave
// open: the kill, the planner's bitmaps, the prefetcher's file, ranges and
// windows, the drain's sizes and faults.
type seamDraw struct {
	seed uint64
	lattice.Point
}

func decodeSeams(seed uint64) seamDraw { return seamDraw{seed, seams.Decode(seed)} }

// draws returns a generator of values below n, seeded by pick and salt, so
// each component draws its own sizes.
func (d seamDraw) draws(salt uint64) func(n int64) int64 {
	s := d.Pick ^ salt
	return func(n int64) int64 { return int64(lattice.SplitMix(&s) % uint64(max(n, 1))) }
}

func (d seamDraw) parts() int64 { return int64(d.Pos("parts") + 1) }

// mcodec is the message codec: the 8-byte record of a 4-byte message, or
// (labels fit 16 bits here) the awkward 6-byte one, which fills neither a
// 4-byte copy unit, nor a buffer, nor a device block evenly.
func (d seamDraw) mcodec() graph.Codec[uint32] {
	if d.Val("record") == "6" {
		return padCodec{}
	}
	return graph.Uint32Codec{}
}

func (d seamDraw) rec() int { return 4 + d.mcodec().Size() }

// buf returns the drawn Options.MsgBufferBytes and the buffer the engine
// makes of it: "min" asks for one byte, which New raises to four records.
func (d seamDraw) buf() (opt, eff int) {
	switch v := d.Val("buf"); v {
	case "min":
		return 1, 4 * d.rec()
	case "default":
		return 0, 64 << 10
	default:
		fmt.Sscan(v, &opt)
		return opt, opt
	}
}

// sparse reports whether the draw's scheduled runs must skip blocks: on the
// path, whose frontier is one vertex an iteration, cut into 1- or 2-entry
// blocks.
func (d seamDraw) sparse() bool {
	return d.Val("graph") == "path" && d.scheduled() && d.Val("format") != "v1" && (d.Val("block") == "1" || d.Val("block") == "2")
}

// scheduled: the witness declared, its adjacency not pinned.
func (d seamDraw) scheduled() bool {
	return d.Val("selective") == "on" && d.Val("adjacency") != "pinned"
}

// seamMaxIters caps every run; each draw's graph converges in far fewer.
const seamMaxIters = 100

// edges generates the draw's graph, at most ~1,700 edges.
func (d seamDraw) edges() []graph.Edge {
	var es []graph.Edge
	switch d.Val("graph") {
	case "rmat": // with self-loops and duplicate edges: the one place the order of applies inside a single SendAll can show
		es = gen.RMAT(9, 1500, gen.NaturalRMAT, d.seed)
		for i := 0; i < 40; i++ {
			es = append(es, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i)}, es[3*i], es[3*i])
		}
	case "ring": // 24 vertices, each pointing at the next
		for v := graph.VertexID(0); v < 24; v++ {
			es = append(es, graph.Edge{Src: v, Dst: (v + 1) % 24})
		}
	case "star": // a hub pointing at 200 leaves, the odd ones pointing back
		for v := graph.VertexID(1); v <= 200; v++ {
			if es = append(es, graph.Edge{Src: 0, Dst: v}); v%2 == 1 {
				es = append(es, graph.Edge{Src: v, Dst: 0})
			}
		}
	case "path": // 0 → 20 → 19 → … → 1 and a self-loop on 0: relabeled by degree, a chain down the IDs from label 0
		es = []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 20}}
		for v := graph.VertexID(20); v > 1; v-- {
			es = append(es, graph.Edge{Src: v, Dst: v - 1})
		}
	case "selfloop":
		es = []graph.Edge{{Src: 7, Dst: 7}}
	}
	return es
}

// program returns the witness program over n vertices by one of the three
// routes of SendAll and SendEach: with its own delegates — ApplyAll, ApplyEach,
// ApplyRecords over the draw's message codec, and UpdateRun — the engine's
// default loops over its Apply and Update, and Send in a loop (sendLoop, the
// delegates hidden too), its FrontierSafe declaration kept or hidden.
func (d seamDraw) program(route string, n int) Program[witnessVal, uint32] {
	own := witnessLabel{pad: d.Val("record") == "6", root: d.root(n)}
	p := map[string]Program[witnessVal, uint32]{
		"own": own, "noBulk": noBulk[witnessVal, uint32]{own}, "sendLoop": noBulk[witnessVal, uint32]{own}}[route]
	if d.Val("selective") == "on" {
		return p
	} else if route == "own" { // its delegates kept, the field hides the promoted declaration
		return struct {
			witnessLabel
			InitialFrontier struct{}
		}{witnessLabel: own}
	}
	return undeclared[witnessVal, uint32]{p}
}

// root draws the initial frontier of the witness over n vertices: at half
// the draws with a vertex, the rooted witness's, a drawn vertex — the path's
// head on the path — and at the others nil, every vertex.
func (d seamDraw) root(n int) []graph.VertexID {
	if r := d.draws(0x2007); n > 0 && r(2) == 0 {
		root := graph.VertexID(r(int64(n)))
		if d.Val("graph") == "path" {
			root = 0
		}
		return []graph.VertexID{root}
	}
	return nil
}

// vcodec returns the vertex codec a route runs with: witnessCodec with its
// bulk form, or on the noBulk route without it (the engine's per-value
// loop).
func vcodec(route string) graph.Codec[witnessVal] {
	if route == "noBulk" {
		return perValue[witnessVal]{witnessCodec{}}
	}
	return witnessCodec{}
}

// A seamTrial is a draw with its graph converted: the files every process
// copies onto a device of its own, and the options all of them share.
type seamTrial struct {
	seamDraw
	staging *storage.Device
	files   []string
	opts    Options
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// device is a fault-injecting device holding a copy of the graph's files.
func (x *seamTrial) device(t *testing.T) *storage.FaultDevice {
	fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
	for _, name := range x.files {
		data, err := storage.ReadAllFile(x.staging, name)
		must(t, err)
		must(t, storage.WriteAll(fd.Device, name, data))
	}
	return fd
}

// A proc is one process of a draw: an engine run by one route, what
// observed it, and — polled on the engine goroutine each time the run
// checks its context, once when Run starts and then before every partition
// — the ledger, and the messages pending for the partition about to run.
type proc struct {
	g      *dos.Graph
	shared *SharedAdjacency
	eng    *Engine[witnessVal, uint32]
	res    Result
	err    error
	reg    *obs.Registry
	tr     *obs.Tracer
	clock  *sim.Clock
	snaps  []counters
	pend   []int64
	ops    int64                    // device operations Run made
	before storage.Stats            // the device when Run started
	total  storage.Stats            // and when it returned
	files  map[string]storage.Stats // per file, what Run moved
}

// exec runs one process on fd: prog under opts, the device armed with plan
// once the graph is loaded, observed as watch says, its context cancelled —
// cause context.DeadlineExceeded — at poll kill (never when kill < 0).
func (x *seamTrial) exec(t *testing.T, fd *storage.FaultDevice, plan storage.FaultPlan, route string, opts Options, watch string, kill int) *proc {
	t.Helper()
	g, err := dos.Load(fd.Device, "g")
	must(t, err)
	p := &proc{g: g}
	if watch == "all" || watch == "registry" {
		p.reg = obs.NewRegistry()
		opts.Obs = p.reg
	}
	if watch == "all" || watch == "tracer" {
		p.tr = obs.NewCollectingTracer(nil)
		opts.Trace = p.tr
	}
	if watch == "all" || watch == "clock" {
		p.clock = sim.NewClock()
		opts.Clock = p.clock
	}
	if x.Val("adjacency") == "shared" {
		p.shared = NewSharedGraph(g).Adjacency()
		opts.SharedAdjacency = p.shared
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	opts.Context = ledgerProbe{ctx, func() {
		if polls := len(p.snaps); polls > 0 {
			q := (polls - 1) % p.eng.NumPartitions()
			size, _ := fd.Size(p.eng.msgFile(q))
			p.pend = append(p.pend, size+int64(len(p.eng.msgBufs[q])))
		}
		if len(p.snaps) == kill {
			cancel(context.DeadlineExceeded)
		}
		p.snaps = append(p.snaps, p.eng.c)
	}}
	p.eng, err = New(DOSLayout(g), x.program(route, g.NumVertices), vcodec(route), x.mcodec(), opts)
	must(t, err)
	if route == "sendLoop" {
		sendLoop(&p.eng.ctx)
	}
	fd.Arm(plan)
	files := fd.FileStats()
	p.before = fd.Stats()
	p.res, p.err = p.eng.Run()
	p.ops, p.total, p.files = fd.Ops(), fd.Stats(), fd.FileStats()
	for name, st := range p.files {
		p.files[name] = st.Sub(files[name])
	}
	return p
}

// run runs the draw's engine as four processes and holds them to each
// other: A, the reference, by a route the draw did not pick, every view
// attached and no checkpoint; B by the other, with the draw's checkpoints;
// and the drawn route, observed as drawn, killed — its device crashed at a
// drawn operation, or its context cancelled at a drawn poll — and run
// again, resumed from its checkpoints when it took any. Under dynamic
// messages one roomy partition computes the same bits. It returns A.
func (d seamDraw) run(t *testing.T) *proc {
	x := &seamTrial{seamDraw: d, staging: storage.NewDevice(storage.NullDevice, storage.Options{})}
	codec, _ := storage.CodecByName(d.Val("format"))
	var block int64
	fmt.Sscan(d.Val("block"), &block)
	must(t, graph.WriteEdges(x.staging, "raw", d.edges()))
	g, err := dos.Convert(dos.ConvertConfig{Dev: x.staging, Codec: codec, BlockEntries: block, RemoveInput: true}, "raw", "g")
	must(t, err)
	x.files = x.staging.List()
	// The smallest budget that plans the drawn partitions around the drawn
	// buffers (plan wants a byte for the states even of an empty graph),
	// plus four bytes an edge when it has room.
	opt, eff := d.buf()
	parts, n := d.parts(), int64(g.NumVertices)
	x.opts = Options{
		MemoryBudget:    pipelineOverheadBytes + g.IndexBytes() + g.BlockTableBytes() + parts*int64(eff) + max((n+parts-1)/parts*12, 1),
		DynamicMessages: d.Val("messages") == "dynamic",
		MsgBufferBytes:  opt,
		MaxIterations:   seamMaxIters,
		StreamAdjacency: d.Val("adjacency") == "pinned",
	}
	if adj := d.Val("adjacency"); adj == "roomy" || adj == "pinned" {
		x.opts.MemoryBudget += 4 * g.NumEdges
	}
	all, i := seams.Axes[seams.Index("route")].Values, d.Pos("route")
	routes := []string{all[(i+1)%3], all[(i+2)%3], all[i]} // the drawn route last
	pool := pooledOutstanding()
	// Each process is a subtest named for what it holds; the checkpoint
	// directories outlive them.
	optsB, every := x.opts, d.Pos("checkpoint")
	optsS := optsB
	if every > 0 {
		optsB.Checkpoint = CheckpointOptions{Dir: t.TempDir(), Every: every}
		optsS.Checkpoint = CheckpointOptions{Dir: t.TempDir(), Every: every}
	}
	var a, b *proc
	var want []byte
	fdA := x.device(t)
	step(t, "reference", func(t *testing.T) {
		a = x.exec(t, fdA, storage.FaultPlan{}, routes[0], x.opts, "all", -1)
		must(t, a.err)
		x.checkReference(t, a, routes[0])
		x.checkProc(t, a, 0, checkpoint.Counters{})
		want = stateBytes(t, a.eng)
		a.eng.Cleanup()
		x.checkLeftovers(t, fdA.Device, true)
	})
	step(t, "twin", func(t *testing.T) {
		fdB := x.device(t)
		b = x.exec(t, fdB, storage.FaultPlan{}, routes[1], optsB, "all", -1)
		must(t, b.err)
		x.checkProc(t, b, 0, checkpoint.Counters{})
		x.checkTwins(t, a, b, want, every)
		b.eng.Cleanup()
		x.checkLeftovers(t, fdB.Device, true)
	})
	// The drawn route dies mid-run: a crash strikes one of the device
	// operations B's run made before the removals that close it, a
	// cancellation any poll.
	step(t, "resume", func(t *testing.T) {
		r := d.draws(0x6b11)
		plan, kill := storage.FaultPlan{}, -1
		if closing := int64(b.eng.NumPartitions()); r(2) == 0 && b.ops > closing {
			plan = storage.FaultPlan{Seed: d.Pick, CrashAtOp: 1 + r(b.ops-closing), TornWrites: true}
		} else {
			kill = int(r(int64(1 + a.res.Iterations*a.eng.NumPartitions())))
		}
		fdS := x.device(t)
		s := x.exec(t, fdS, plan, routes[2], optsS, d.Val("observe"), kill)
		if s.err == nil {
			t.Fatalf("killed (crash at operation %d, cancel at poll %d of %d), yet the run finished", plan.CrashAtOp, kill, len(a.snaps))
		}
		if plan.CrashAtOp > 0 && !errors.Is(s.err, storage.ErrCrashed) ||
			kill >= 0 && !(errors.Is(s.err, ErrCancelled) && errors.Is(s.err, context.DeadlineExceeded)) {
			t.Fatalf("killed run: %v", s.err)
		}
		if s.reg != nil {
			checkLedgerViews(t, s.eng, s.reg, checkpoint.Counters{}) // published on abort
		}
		fdS.Disarm()
		x.checkLeftovers(t, fdS.Device, false)
		var base checkpoint.Counters
		start := 0
		if every > 0 {
			st, err := checkpoint.NewStore(optsS.Checkpoint.Dir)
			must(t, err)
			if ck, err := st.Latest(); err == nil {
				base, start = ck.Manifest.Counters, ck.Manifest.Iteration
			}
			optsS.Checkpoint.Resume = true
		} else {
			s.eng.Cleanup()
			x.checkLeftovers(t, fdS.Device, true)
		}
		s = x.exec(t, fdS, storage.FaultPlan{}, routes[2], optsS, d.Val("observe"), -1)
		must(t, s.err)
		x.checkProc(t, s, start, base)
		gotRes, gotRows := comparableRun(s.res, s.reg.Iters(), true)
		wantRes, wantRows := comparableRun(a.res, a.reg.Iters()[start:], true)
		if gotRes != wantRes || s.reg != nil && !slices.Equal(gotRows, wantRows) {
			t.Errorf("%s, killed and run again from iteration %d: %+v, rows %+v; %s: %+v, rows %+v",
				routes[2], start, gotRes, gotRows, routes[0], wantRes, wantRows)
		}
		if got := stateBytes(t, s.eng); !slices.Equal(got, want) {
			t.Errorf("%s, killed and run again, leaves different state bytes", routes[2])
		}
		if every > 0 {
			checkManifests(t, optsB.Checkpoint.Dir, optsS.Checkpoint.Dir)
		}
		s.eng.Cleanup()
		x.checkLeftovers(t, fdS.Device, true)
	})
	// The paper's engine's checkpoints carry no bitmap: the declared witness
	// resumed unpinned from one, cancelled after its first, schedules every
	// vertex, not the initial frontier (traces may differ, as checkRoomy says).
	if x.Val("selective") == "on" && every > 0 {
		step(t, "bitmapless", func(t *testing.T) {
			opts, fd := x.opts, x.device(t)
			opts.StreamAdjacency, opts.Checkpoint = true, CheckpointOptions{Dir: t.TempDir(), Every: every}
			if s := x.exec(t, fd, storage.FaultPlan{}, routes[2], opts, "none", 1+every*a.eng.NumPartitions()); s.err != nil && !errors.Is(s.err, ErrCancelled) {
				t.Fatalf("cancelled run: %v", s.err)
			}
			opts.StreamAdjacency, opts.Checkpoint.Resume = false, true
			s := x.exec(t, fd, storage.FaultPlan{}, routes[2], opts, "none", -1)
			if must(t, s.err); !slices.Equal(untraced(stateBytes(t, s.eng)), untraced(want)) {
				t.Error("resumed selectively from a checkpoint without a bitmap, the run leaves different labels")
			}
			s.eng.Cleanup()
		})
	}
	step(t, "misuse", func(t *testing.T) { x.checkMisuse(t, a, b) })
	if x.opts.DynamicMessages {
		step(t, "roomy", func(t *testing.T) { x.checkRoomy(t, a, fdA.Device, want) })
	}
	if got := pooledOutstanding(); got != pool {
		t.Errorf("%d pooled buffers outstanding after the draw's runs, %d before", got, pool)
	}
	return a
}

// comparableRun strips what legitimately differs between two runs of one
// configuration from a Result and its rows: what checkpoints cost, and
// wall-clock; and for a second process — or an unobserved one — the codec
// work Result keeps per process, and the device traffic of the restore
// (with the states pinned, its first iteration loads what an uninterrupted
// run never stored).
func comparableRun(res Result, rows []obs.IterStats, resumed bool) (Result, []obs.IterStats) {
	res = stripDurability(res)
	res.DecodeTime = 0
	if resumed {
		res.CodecBytesRaw, res.CodecBytesEncoded = 0, 0
	}
	out := make([]obs.IterStats, len(rows))
	for i, row := range rows {
		if resumed {
			row.DeviceSeeks, row.DeviceReadBytes, row.DeviceWriteBytes = 0, 0, 0
		}
		out[i] = row
	}
	return res, out
}

func stateBytes(t *testing.T, eng *Engine[witnessVal, uint32]) []byte {
	t.Helper()
	vals, err := eng.Values()
	must(t, err)
	return encodeStates[witnessVal](witnessCodec{}, vals)
}

// untraced returns a copy of state bytes with every trace zeroed.
func untraced(b []byte) []byte {
	b = slices.Clone(b)
	for i := 8; i < len(b); i += 12 {
		clear(b[i : i+4])
	}
	return b
}

// checkLeftovers: the device holds the graph's files and — unless strict,
// after a kill — runtime files under the engine's name.
func (x *seamTrial) checkLeftovers(t *testing.T, dev *storage.Device, strict bool) {
	t.Helper()
	for _, f := range dev.List() {
		if !slices.Contains(x.files, f) && (strict || !strings.HasPrefix(f, "graphz.")) {
			t.Errorf("the run left %q", f)
		}
	}
}

// checkReference holds the reference process A — uninterrupted, no
// checkpoints, every view attached — to what the draw planned and to exact
// counts: the ledger, the plan, its device traffic file by file, the codec
// and cache counters, the memory timeline and the run report.
func (x *seamTrial) checkReference(t *testing.T, a *proc, route string) {
	t.Helper()
	res, eng, reg := a.res, a.eng, a.reg
	l := eng.layout
	n, edges := int64(l.NumVertices()), l.NumEdges()
	nParts, iters := eng.NumPartitions(), int64(res.Iterations)
	sel, dm := x.scheduled(), x.opts.DynamicMessages
	_, bulkLoop := eng.bulk.(*applyLoop[witnessVal, uint32])
	_, eachLoop := eng.each.(*applyLoop[witnessVal, uint32])
	_, drainLoop := eng.records.(*applyLoop[witnessVal, uint32])
	if _, states := eng.states.(witnessCodec); bulkLoop == (route == "own") || eachLoop == (route == "own") || drainLoop == (route == "own") || (eng.runs == nil) == (route == "own") || states == (route == "noBulk") {
		t.Errorf("route %s: New bound %T, %T, %T, %T and %T", route, eng.bulk, eng.each, eng.records, eng.runs, eng.states)
	}

	// The ledger and the plan.
	if res.Iterations >= seamMaxIters || res.MessagesApplied != res.MessagesSent {
		t.Fatalf("stopped after %d iterations with %d of %d messages applied", res.Iterations, res.MessagesApplied, res.MessagesSent)
	}
	if res.MessagesInline+res.MessagesBuffered != res.MessagesSent || res.MessagesSpilled > res.MessagesBuffered ||
		dm && nParts == 1 && res.MessagesBuffered != 0 || !dm && res.MessagesInline != 0 ||
		res.UpdatesRun > iters*n || !sel && res.UpdatesRun != iters*n {
		t.Errorf("sent %d = inline %d + buffered %d ⊇ spilled %d; %d updates of %d vertices in %d iterations",
			res.MessagesSent, res.MessagesInline, res.MessagesBuffered, res.MessagesSpilled, res.UpdatesRun, n, iters)
	}
	if scheduled := res.BlocksScanned+res.BlocksSkipped > 0; scheduled != (sel && edges > 0) {
		t.Errorf("scheduled %v, yet the planner scanned %d blocks and skipped %d", sel, res.BlocksScanned, res.BlocksSkipped)
	}
	rows := reg.Iters()
	skipped := slices.ContainsFunc(rows[min(2, len(rows)):], func(r obs.IterStats) bool { return r.BlocksSkipped > 0 })
	if x.sparse() && len(rows) > 2 && !skipped {
		t.Errorf("a one-vertex frontier, yet %d iterations skipped no block", len(rows))
	}
	if p := int64(nParts); p > x.parts() || res.Partitions != nParts || res.SemiExternal != (p == 1) ||
		reg.CounterValue("graphz_sem_runs_total") != int64(b2i(p == 1)) {
		t.Errorf("%d partitions (semi-external %v) of a budget sized for %d", p, res.SemiExternal, x.parts())
	}
	switch adj := x.Val("adjacency"); {
	case adj == "shared" && !res.ResidentAdjacency, adj == "pinned" && res.ResidentAdjacency,
		adj == "tight" && int64(nParts) == x.parts() && edges > 0 && res.ResidentAdjacency,
		adj == "roomy" && int64(nParts) == x.parts() && !res.ResidentAdjacency:
		t.Errorf("%s adjacency, yet resident = %v", adj, res.ResidentAdjacency)
	}

	// Device traffic, file by file. The iteration rows hold every byte the
	// run moved but the pinned states' one flush after them.
	var rowsRead, rowsWritten int64
	for _, r := range rows {
		rowsRead, rowsWritten = rowsRead+r.DeviceReadBytes, rowsWritten+r.DeviceWriteBytes
	}
	flush := int64(0)
	if nParts == 1 {
		flush = n * 12
	}
	if io := a.total.Sub(a.before); rowsRead != io.ReadBytes || rowsWritten != io.WriteBytes-flush {
		t.Errorf("rows read %d and wrote %d bytes; the device read %d and wrote %d, %d of them the flush",
			rowsRead, rowsWritten, io.ReadBytes, io.WriteBytes, flush)
	}
	vstate := a.files[eng.vstateFile()]
	if nParts == 1 && (vstate.ReadBytes != 0 || vstate.WriteBytes != flush) ||
		nParts > 1 && iters > 1 && n > 0 && vstate.ReadBytes == 0 {
		t.Errorf("%d partitions over %d iterations: vertex-state traffic %+v", nParts, iters, vstate)
	}
	// The edges file: one fill when resident, one scan a partition an
	// iteration when streamed (fewer under selective scheduling), and the
	// codec counters decode what was read.
	scan, decoded := fullScan(eng)
	read := a.files[l.EdgesFile()].ReadBytes
	size, err := a.g.Device().Size(l.EdgesFile())
	must(t, err)
	wantRead, wantRaw, wantEnc := iters*scan, iters*decoded, read
	if res.ResidentAdjacency {
		wantRead, wantRaw = size, 4*edges
	}
	if eng.adj.FixedEntries() {
		wantRaw, wantEnc = 0, 0
	}
	if !sel || res.ResidentAdjacency {
		if read != wantRead || res.CodecBytesRaw != wantRaw || res.CodecBytesEncoded != wantEnc {
			t.Errorf("read %d edge bytes, decoded %d into %d; want %d, decoded into %d",
				read, res.CodecBytesEncoded, res.CodecBytesRaw, wantRead, wantRaw)
		}
	} else if read > wantRead || res.CodecBytesRaw > wantRaw || res.CodecBytesEncoded > read {
		t.Errorf("selective: read %d edge bytes, decoded %d into %d; a full scan a partition reads %d, decodes into %d",
			read, res.CodecBytesEncoded, res.CodecBytesRaw, wantRead, wantRaw)
	}
	// A one-vertex frontier, streamed, reads at most half of what a full
	// scan an iteration reads: the saving selective scheduling exists for.
	if x.sparse() && !res.ResidentAdjacency && (iters < 16 || 2*read > wantRead) {
		t.Errorf("a one-vertex frontier over %d iterations read %d edge bytes; a full scan an iteration, %d", iters, read, wantRead)
	}
	visits, ledger := int64(0), ledgerAt(a)
	for j := 0; j+1 < len(ledger); j++ {
		visits += int64(b2i(visited(eng, 0, j, ledger)))
	}
	if x.sparse() && nParts > 1 && iters > 3 && visits == iters*int64(nParts) {
		t.Errorf("a one-vertex frontier in %d partitions, yet no visit of %d iterations was skipped whole", nParts, iters)
	}
	hits := reg.CounterValue("graphz_adjcache_hits_total")
	if hits != max(visits-1, 0)*int64(b2i(res.ResidentAdjacency)) {
		t.Errorf("%d cache hits over %d partition visits, resident %v", hits, visits, res.ResidentAdjacency)
	}

	// The heatmap attributes every edges-file byte read, every decode
	// nanosecond and every buffered message drained.
	rep := obs.BuildReport(obs.ReportInfo{Engine: engineName}, reg, a.tr, DeviceFileIO(a.g.Device()))
	var heatRead, heatDecode, heatDrain int64
	for _, c := range rep.Blocks {
		heatDecode += c.DecodeNS
		switch c.File {
		case l.EdgesFile():
			heatRead += c.ReadBytes
		case eng.vstateFile():
			heatDrain += c.DrainMsgs
		}
	}
	if heatRead != read || heatDecode != int64(res.DecodeTime) || heatDrain != res.MessagesBuffered {
		t.Errorf("heat: %d edge bytes read, %d ns decoded, %d messages drained; the run: %d, %d, %d buffered",
			heatRead, heatDecode, heatDrain, read, res.DecodeTime, res.MessagesBuffered)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// visited reports whether visit j of a process started at iteration start
// ran, from the ledger before and after it (snaps[j], snaps[j+1]): every
// non-empty partition runs in iteration 0, which initializes its states;
// after it a visit updates a vertex or applies a message, or was skipped
// whole.
func visited(eng *Engine[witnessVal, uint32], start, j int, snaps []counters) bool {
	q := j % eng.NumPartitions()
	return start+j/eng.NumPartitions() == 0 && eng.parts.starts[q] < eng.parts.starts[q+1] ||
		snaps[j].Updates != snaps[j+1].Updates || snaps[j].Applied != snaps[j+1].Applied
}

// fullScan returns what one iteration streaming every partition reads of
// the edges file and decodes from it: each partition streams its own entry
// span, so a block two partitions share is read by both.
func fullScan(eng *Engine[witnessVal, uint32]) (read, decoded int64) {
	adj := eng.adj
	for p := 0; p < eng.NumPartitions(); p++ {
		lo, hi := eng.parts.starts[p], eng.parts.starts[p+1]
		if lo == hi {
			continue
		}
		start, end := eng.layout.OffsetOf(lo), endOffset(eng.layout, hi)
		if adj.FixedEntries() {
			read += 4 * (end - start)
			continue
		}
		for b := start / adj.BlockEntries; end > start && b <= (end-1)/adj.BlockEntries; b++ {
			lo, hi := adj.BlockRange(b)
			read, decoded = read+hi-lo, decoded+4*adj.EntriesIn(b)
		}
	}
	return read, decoded
}

// checkProc holds one finished process — fresh, or resumed at iteration
// start from the counters base — to the views attached to it.
func (x *seamTrial) checkProc(t *testing.T, p *proc, start int, base checkpoint.Counters) {
	t.Helper()
	// The producer decodes every block it reads: an observed run's codec
	// consumed exactly the bytes it read of an encoded edges file.
	if read := p.files[p.g.EdgesFile()].ReadBytes; p.eng.eo.On && !p.eng.adj.FixedEntries() && p.res.CodecBytesEncoded != read {
		t.Errorf("the codec consumed %d bytes of the %d read", p.res.CodecBytesEncoded, read)
	}
	if p.reg != nil {
		for name, want := range resultTwins(p.res) {
			if got := p.reg.CounterValue(name); got != want {
				t.Errorf("%s = %d, Result says %d", name, got, want)
			}
		}
		checkLedgerViews(t, p.eng, p.reg, base)
		if rows := len(p.reg.Iters()); rows != p.res.Iterations-start {
			t.Errorf("%d rows for iterations %d to %d", rows, start, p.res.Iterations)
		}
		if rows := len(p.reg.Iters()); rows > 0 {
			checkWithinBudget(t, p.reg.MemSamples())
		}
		if got := p.reg.CounterValue("graphz_restore_total"); got != int64(b2i(start > 0)) {
			t.Errorf("graphz_restore_total = %d for a process started at iteration %d", got, start)
		}
	}
	if p.clock != nil {
		checkModeledCompute(t, p, start)
	}
	if p.tr != nil {
		checkSpans(t, p, start)
	}
	if p.reg == nil || p.tr == nil {
		return
	}
	// The run report: its counters are the registry's, and its stage
	// totals equal their counters exactly.
	rep := obs.BuildReport(obs.ReportInfo{Engine: engineName}, p.reg, p.tr, nil)
	if !reflect.DeepEqual(rep.Counters, p.reg.Counters()) {
		t.Errorf("report counters %v differ from the registry's %v", rep.Counters, p.reg.Counters())
	}
	tot := rep.StageTotals()
	for stage, counter := range map[string]string{
		obs.StageSio: "graphz_stage_sio_ns_total", obs.StageDispatch: "graphz_stage_dispatch_ns_total",
		obs.StageWorker: "graphz_stage_worker_ns_total", obs.StageDrain: "graphz_stage_drain_ns_total",
		obs.StageDecode: "graphz_codec_decode_ns_total", obs.StageCheckpoint: "graphz_checkpoint_ns_total",
	} {
		if tot[stage] != p.reg.CounterValue(counter) {
			t.Errorf("stage %s totals %d ns, %s says %d", stage, tot[stage], counter, p.reg.CounterValue(counter))
		}
	}
}

// checkTwins holds B, the second route with the draw's checkpoints, to A:
// the same Result, rows, state bytes and device traffic file by file (a
// checkpoint adds reads of the states and message stores, and its own
// counters), and the checkpoints the cadence and Keep say. A streamed
// sparse schedule's producer reads and decodes ahead into blocks its Worker
// may never ask for, as far as it got before the stop: there the edges
// file's reads and the codec counters vary run to run, bounded by a full
// scan an iteration.
func (x *seamTrial) checkTwins(t *testing.T, a, b *proc, want []byte, every int) {
	t.Helper()
	wantRes, wantRows := comparableRun(a.res, a.reg.Iters(), false)
	gotRes, gotRows := comparableRun(b.res, b.reg.Iters(), false)
	ahead := x.scheduled() && !a.res.ResidentAdjacency
	scan, decoded := fullScan(b.eng)
	if iters := int64(b.res.Iterations); ahead && gotRes.CodecBytesEncoded <= iters*scan && gotRes.CodecBytesRaw <= iters*decoded {
		gotRes.CodecBytesEncoded, gotRes.CodecBytesRaw = wantRes.CodecBytesEncoded, wantRes.CodecBytesRaw
	}
	for i := range gotRows {
		if (every > 0 || ahead) && i < len(wantRows) { // a checkpoint's reads, or a read-ahead, move the read heads
			gotRows[i].DeviceSeeks = wantRows[i].DeviceSeeks
		}
		if ahead && i < len(wantRows) {
			gotRows[i].DeviceReadBytes = wantRows[i].DeviceReadBytes
		}
	}
	if gotRes != wantRes || !slices.Equal(gotRows, wantRows) {
		t.Errorf("second route: %+v, rows %+v; first: %+v, rows %+v", gotRes, gotRows, wantRes, wantRows)
	}
	if !slices.Equal(stateBytes(t, b.eng), want) {
		t.Error("the second route leaves different state bytes")
	}
	for name, fa := range a.files {
		fb := b.files[name]
		same := fa == fb
		if every > 0 && name != a.g.EdgesFile() {
			same = fa.WriteOps == fb.WriteOps && fa.WriteBytes == fb.WriteBytes && fa.ReadBytes <= fb.ReadBytes
		}
		if ahead && name == a.g.EdgesFile() {
			same = fa.WriteOps == fb.WriteOps && fa.WriteBytes == fb.WriteBytes && fb.ReadBytes <= int64(b.res.Iterations)*scan
		}
		if !same {
			t.Errorf("%s: device traffic %+v, the first route's %+v", name, fb, fa)
		}
	}
	if len(a.files) != len(b.files) {
		t.Errorf("the routes touched %d and %d files", len(a.files), len(b.files))
	}
	if every == 0 {
		return
	}
	var marks []int
	for k := 1; k <= b.res.Iterations; k++ {
		if k%every == 0 || k == b.res.Iterations {
			marks = append(marks, k)
		}
	}
	st, err := checkpoint.NewStore(b.eng.opts.Checkpoint.Dir)
	must(t, err)
	kept, err := st.Iterations()
	must(t, err)
	if b.res.Checkpoints != int64(len(marks)) || b.res.CheckpointBytes <= 0 || !slices.Equal(kept, marks[max(len(marks)-2, 0):]) {
		t.Errorf("%d checkpoints of %d bytes, %v kept; the cadence marks %v", b.res.Checkpoints, b.res.CheckpointBytes, kept, marks)
	}
}

// checkManifests: two checkpoint directories of one logical run hold the
// same checkpoints — every state byte, bit and pending record (a manifest
// names each section's CRC) and every counter.
func checkManifests(t *testing.T, dirA, dirB string) {
	t.Helper()
	var got [2][]checkpoint.Manifest
	for i, dir := range []string{dirA, dirB} {
		st, err := checkpoint.NewStore(dir)
		must(t, err)
		iters, err := st.Iterations()
		must(t, err)
		for _, it := range iters {
			ck, err := st.Load(it)
			must(t, err)
			got[i] = append(got[i], ck.Manifest)
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("checkpoints %+v, the other route's %+v", got[1], got[0])
	}
}

// checkMisuse: a finished engine neither runs nor resumes again, a fresh
// one has no values and, without a directory or from an empty one, no
// checkpoint to resume, and New fails typed on a budget of nothing, on one
// that holds the fixed floor only, and on another graph's shared adjacency.
// A program that breaks the contract in a way the draw's route takes, or
// sends past the last vertex by a drawn route (every draw's "stray", at half
// the dynamic ones in a run capped at one iteration), fails the run typed
// at the boundary after the visit that broke it, with no Result and the
// ledger's views agreeing; one that breaks it off the route finishes.
func (x *seamTrial) checkMisuse(t *testing.T, a, b *proc) {
	t.Helper()
	r := x.draws(0xb4ea)
	kinds := []string{"ApplyRecords", "short"}
	if x.opts.DynamicMessages && a.eng.NumPartitions() == 1 {
		kinds = []string{"ApplyAll", "ApplyEach", "short"}
	}
	for _, which := range []string{kinds[r(int64(len(kinds)))], "stray"} {
		polls, broke, off := 0, -1, int(1-2*r(2))
		if which == "stray" {
			off = int(r(3)) - 1 // the route: Send, SendAll, SendEach
		}
		bp := breaker{witnessLabel{pad: x.Val("record") == "6", root: x.root(a.g.NumVertices)}, which, off, &polls, &broke}
		opts := x.opts
		opts.Obs, opts.Context = obs.NewRegistry(), ledgerProbe{context.Background(), func() { polls++ }}
		if which == "stray" && opts.DynamicMessages && r(2) == 0 {
			opts.MaxIterations = 1 // static strays wait for a drain, which this leaves out (ROADMAP item 2)
		}
		eng, err := New[witnessVal, uint32](DOSLayout(a.g), bp, witnessCodec{}, x.mcodec(), opts)
		must(t, err)
		if res, err := eng.Run(); broke >= 0 && (!errors.Is(err, ErrProgramContract) || res != (Result{}) || polls != broke) || broke < 0 && (err != nil || which == "stray" && a.g.NumVertices > 0) {
			t.Errorf("%s off by %+d, broken at poll %d: stopped at poll %d with %+v, %v", bp.which, bp.off, broke, polls, res, err)
		}
		checkLedgerViews(t, eng, opts.Obs, checkpoint.Counters{})
		eng.Cleanup()
	}
	if _, err := a.eng.Run(); err == nil {
		t.Error("a second Run succeeded")
	}
	fresh := func(opts Options) (*Engine[witnessVal, uint32], error) {
		return New(DOSLayout(a.g), x.program("own", a.g.NumVertices), witnessCodec{}, x.mcodec(), opts)
	}
	eng, err := fresh(x.opts)
	must(t, err)
	if _, err := eng.Values(); err == nil {
		t.Error("Values before Run succeeded")
	}
	opts := x.opts
	opts.MemoryBudget = 0
	if _, err := fresh(opts); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("no budget: %v, want ErrInvalidOptions", err)
	}
	opts.MemoryBudget = pipelineOverheadBytes + a.g.IndexBytes() + a.g.BlockTableBytes()
	if _, err := fresh(opts); !errors.Is(err, ErrMemoryBudget) || errors.Is(err, ErrInvalidOptions) {
		t.Errorf("the fixed floor only: %v, want ErrMemoryBudget alone", err)
	}
	opts = x.opts
	opts.SharedAdjacency = NewSharedAdjacency(DOSLayout(b.g))
	if _, err := fresh(opts); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("another device's shared adjacency: %v, want ErrInvalidOptions", err)
	}
}

// checkRoomy: under dynamic messages one roomy partition applies every
// vertex's messages in the order the draw's plan did, so it leaves the same
// bits and, undeclared, takes no more iterations. A sparse plan leaves a bit
// set ahead of the cursor outside its runs to the next iteration, and which
// bits depends on the plan: from iteration 0 on, a selective rooted
// witness's arrival orders — its traces — differ from plan to plan, its
// labels do not. A shared adjacency A filled serves it without a read or a
// decode.
func (x *seamTrial) checkRoomy(t *testing.T, a *proc, dev *storage.Device, want []byte) {
	t.Helper()
	reg := obs.NewRegistry()
	opts := Options{MemoryBudget: 64 << 20, DynamicMessages: true, Name: "roomy", Obs: reg, SharedAdjacency: a.shared}
	eng, err := New(DOSLayout(a.g), x.program("own", a.g.NumVertices), witnessCodec{}, x.mcodec(), opts)
	must(t, err)
	before := dev.FileStats()[a.g.EdgesFile()]
	res, err := eng.Run()
	must(t, err)
	got := stateBytes(t, eng)
	if eng.sel != nil && x.root(a.g.NumVertices) != nil {
		got, want = untraced(got), untraced(want)
	}
	if same := slices.Equal(got, want); !same || x.Val("selective") == "off" && res.Iterations > a.res.Iterations {
		t.Errorf("one roomy partition: %d iterations (the draw's plan: %d), same bits %v", res.Iterations, a.res.Iterations, same)
	}
	io := dev.FileStats()[a.g.EdgesFile()].Sub(before)
	if a.shared != nil && (io.ReadOps != 0 || res.CodecBytesEncoded+res.CodecBytesRaw != 0) {
		t.Errorf("a filled shared adjacency read %+v and decoded %d bytes into %d", io, res.CodecBytesEncoded, res.CodecBytesRaw)
	}
	eng.Cleanup()
}

// plan holds the selective planner to planSelectiveRef on every partition
// of the draw's layout — and on its degrees shuffled, from a drawn vertex and
// entry base — at four bitmap densities: no bit, a few, the densest sparse
// plan below the threshold, and any; bits outside the partition are set
// too. Each bitmap is also held, primitive by primitive, to the []bool it
// was built from, and through a checkpoint's round trip. Last, DegreeRun is
// held to DegreeOf on every layout the planner meets.
func (d seamDraw) plan(t *testing.T, eng *Engine[witnessVal, uint32]) {
	r := d.draws(0x91a2)
	var pl selPlanner // one planner: its scratch is reused plan to plan
	for p := 0; p < eng.NumPartitions(); p++ {
		lo, hi := eng.parts.starts[p], eng.parts.starts[p+1]
		count := int64(hi - lo)
		degs := make([]uint32, count)
		for i := range degs {
			degs[i] = eng.layout.DegreeOf(lo + graph.VertexID(i))
		}
		shuffled := make([]uint32, count)
		for i, j := range randPerm(r, count) {
			shuffled[i] = degs[j]
		}
		base, start := graph.VertexID(r(130)), r(40)
		for _, k := range []int64{0, min(1+r(3), count), (count+3)/4 - 1, r(count + 1)} {
			if count == 0 {
				break
			}
			as := drawnBits(t, r, eng.layout.NumVertices(), lo, hi, k)
			planBoth(t, &pl, as, eng.layout, lo, eng.layout.OffsetOf(lo), degs, eng.adj.BlockEntries)
			as = drawnBits(t, r, int(base)+len(shuffled)+int(r(70)), base, base+graph.VertexID(count), k)
			planBoth(t, &pl, as, newDegIndex(base, start, shuffled), base, start, shuffled, 1+r(9))
		}
	}
	full := newActiveSet(int(1 + r(9000)))
	if back, err := unmarshalActiveSet(full.marshal(), full.n); err != nil || !reflect.DeepEqual(back, full) ||
		full.countRange(0, graph.VertexID(full.n)) != int64(full.n) || full.countRange(1, graph.VertexID(full.n)) != int64(full.n-1) {
		t.Errorf("an all-ones set of %d counts %d, %d past its first; back from a checkpoint: %v",
			full.n, full.countRange(0, graph.VertexID(full.n)), full.countRange(1, graph.VertexID(full.n)), err)
	}

	// DegreeRun, on the draw's DOS layout (a run ends at the next bucket),
	// on the same graph built as CSR (a run of one), and on the test layouts.
	l, n := eng.layout, graph.VertexID(eng.layout.NumVertices())
	buckets := l.(*dosLayout).g.Buckets
	checkDegreeRuns(t, "dos", l, 0, n, func(x graph.VertexID) graph.VertexID {
		i, _ := slices.BinarySearchFunc(buckets, x+1, func(b dos.Bucket, x graph.VertexID) int { return cmp.Compare(b.FirstID, x) })
		if i < len(buckets) {
			return buckets[i].FirstID
		}
		return n
	})
	if es := d.edges(); len(es) > 0 {
		dev := storage.NewDevice(storage.NullDevice, storage.Options{})
		must(t, graph.WriteEdges(dev, "raw", es))
		g, err := csr.Build(csr.BuildConfig{Dev: dev}, "raw", "g")
		must(t, err)
		must(t, g.LoadIndex())
		checkDegreeRuns(t, "csr", CSRLayout(g), 0, graph.VertexID(g.NumVertices), func(x graph.VertexID) graph.VertexID { return x + 1 })
	}
	degs := make([]uint32, r(70))
	for i := range degs {
		degs[i] = uint32(r(4))
	}
	base := graph.VertexID(r(130))
	hi := base + graph.VertexID(len(degs))
	checkDegreeRuns(t, "degIndex", newDegIndex(base, r(40), degs), base, hi, func(x graph.VertexID) graph.VertexID {
		for y := x + 1; y < hi; y++ {
			if degs[y-base] != degs[x-base] {
				return y
			}
		}
		return hi
	})
	checkDegreeRuns(t, "flat", flatLayout{n: int(n)}, 0, n, func(graph.VertexID) graph.VertexID { return n })
}

// checkDegreeRuns holds DegreeRun at every vertex x of [lo, hi) to DegreeOf
// and to the run end the layout promises: DegreeRun(x) is x's degree, want(x)
// ends its run, and every vertex of [x, want(x)) has that degree.
func checkDegreeRuns(t *testing.T, name string, l interface {
	DegreeOf(graph.VertexID) uint32
	DegreeRun(graph.VertexID) (uint32, graph.VertexID)
}, lo, hi graph.VertexID, want func(graph.VertexID) graph.VertexID) {
	t.Helper()
	for x := lo; x < hi; x++ {
		deg, end := l.DegreeRun(x)
		if deg != l.DegreeOf(x) || end != want(x) || end <= x || end > hi {
			t.Fatalf("%s: DegreeRun(%d) = %d, %d; degree %d, run end %d, vertices end at %d", name, x, deg, end, l.DegreeOf(x), want(x), hi)
		}
		for y := x + 1; y < end; y++ {
			if l.DegreeOf(y) != deg {
				t.Fatalf("%s: DegreeRun(%d) = %d up to %d, yet vertex %d has degree %d", name, x, deg, end, y, l.DegreeOf(y))
			}
		}
	}
}

// drawnBits returns a bitmap over [0, n) — at a third of the draws widened
// past 4,096 vertices, so its summary takes many 8-byte loads — with k bits
// set at random in [lo, hi), the one just below it and a few from hi on.
// With every bit of a drawn word, or of one summary load's 8 words, cleared
// (and set back after), it holds the bitmap's primitives to the []bool it
// mirrors, and its marshal to its unmarshal, which refuses a section a word
// short or with a bit at or past n.
func drawnBits(t *testing.T, r func(int64) int64, n int, lo, hi graph.VertexID, k int64) *Frontier {
	t.Helper()
	if r(3) == 0 {
		n += 4096 + int(r(8192))
	}
	as, ref := newEmptyActiveSet(n), make([]bool, n)
	mark := func(v graph.VertexID, on bool) {
		op := map[bool]func(graph.VertexID){true: as.set, false: as.clear}[on]
		op(v)
		op(v) // idempotent
		ref[v] = on
	}
	for _, i := range randPerm(r, int64(hi-lo))[:k] {
		mark(lo+graph.VertexID(i), true)
	}
	if lo > 0 {
		mark(lo-1, true)
	}
	for v := int(hi); v < n; v += 1 + int(r(4096)) {
		mark(graph.VertexID(v), true)
	}
	span := 64 << (3 * r(2)) // the word, or the summary load, of the first set bit from a drawn vertex on
	from := int(as.nextSet(graph.VertexID(r(int64(n))), graph.VertexID(n))) % n / span * span
	var gone []graph.VertexID
	for v := graph.VertexID(from); int(v) < min(from+span, n); v++ {
		if ref[v] {
			mark(v, false)
			gone = append(gone, v)
		}
	}
	i, j := graph.VertexID(r(int64(n+1))), graph.VertexID(r(int64(n+1)))
	i, j = min(i, j), max(i, j)
	var count, in int64 // bits set, and set in [i, j)
	next, gap := j, j   // the first set and the first clear bit there
	for v, set := range ref {
		if u := graph.VertexID(v); as.get(u) != set {
			t.Fatalf("bit %d reads %v, was set %v", v, !set, set)
		} else if u >= i && u < j && set {
			in, next = in+1, min(next, u)
		} else if u >= i && u < j {
			gap = min(gap, u)
		}
		count += int64(b2i(set))
	}
	if all := as.countRange(0, graph.VertexID(n)); all != count || as.countRange(i, j) != in || as.nextSet(i, j) != next || as.nextBit(i, j, false) != gap {
		t.Errorf("[%d,+%d) cleared: %d bits counted %d; [%d,%d): count %d, next %d, next clear %d; the bits hold %d, first %d, first clear %d",
			from, span, count, all, i, j, as.countRange(i, j), as.nextSet(i, j), as.nextBit(i, j, false), in, next, gap)
	}
	data := as.marshal()
	if back, err := unmarshalActiveSet(data, n); err != nil || !reflect.DeepEqual(back, as) {
		t.Errorf("back from a checkpoint %+v (%v), was %+v", back, err, as)
	}
	if _, err := unmarshalActiveSet(data[8:], n); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Errorf("a bitmap section one word short: %v, want checkpoint.ErrTruncated", err)
	}
	if data[len(data)-1] |= 0x80; n%64 != 0 { // vertex 64·⌈n/64⌉−1, past the last
		if _, err := unmarshalActiveSet(data, n); !errors.Is(err, checkpoint.ErrTruncated) {
			t.Errorf("a bit past vertex %d: %v, want checkpoint.ErrTruncated", n-1, err)
		}
	}
	for _, v := range gone {
		mark(v, true)
	}
	return as
}

// randPerm is a drawn permutation of [0, n).
func randPerm(r func(int64) int64, n int64) []int64 {
	p := make([]int64, n)
	for i := range p {
		j := r(int64(i + 1))
		p[i], p[j] = p[j], int64(i)
	}
	return p
}

// planBoth plans with the planner and with the reference, and fails the
// test unless they agree on everything the engine reads off a schedule.
func planBoth(t *testing.T, pl *selPlanner, as *Frontier, idx spanIndex, lo graph.VertexID, start int64, degs []uint32, epb int64) {
	t.Helper()
	hi, end := lo+graph.VertexID(len(degs)), start
	for _, d := range degs {
		end += int64(d)
	}
	got := pl.plan(as, idx, lo, hi, start, end, epb, defaultSelectiveDensity)
	want := planSelectiveRef(as, lo, hi, start, degs, epb, defaultSelectiveDensity)
	if got.streamAll != want.streamAll || got.blocksTotal != want.blocksTotal || got.blocksRead != want.blocksRead ||
		got.activeCount != want.activeCount || !slices.Equal(got.runs, want.runs) {
		t.Errorf("[%d,%d) from entry %d in %d-entry blocks, %d active: plan %+v, reference %+v",
			lo, hi, start, epb, want.activeCount, got, want)
	}
}

// planSelectiveRef is the reference planner: the two passes over every
// vertex of the partition the engine ran before the planner walked set
// bits, kept (on the edges file's own block grid) as the definition the
// planner is held to. degs holds the out-degrees of [lo, hi), whose
// adjacency starts at entry offset start.
//
// Scheduling is block-granular: a block holding any active vertex's edges
// is read whole, and every vertex whose entries touch such a block is
// scheduled. Active zero-degree vertices are scheduled too (their updates
// consume no entries).
func planSelectiveRef(as *Frontier, lo, hi graph.VertexID, start int64, degs []uint32, epb int64, threshold float64) selSchedule {
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
		first, end := max(r.startOff/epb, last+1), (r.endOff-1)/epb
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

// DegreeRun returns the maximal run of v's degree, as a degree-ordered
// layout would, so shuffled sequences exercise the planner's arithmetic
// step inside a run as well as its search past one.
func (x *degIndex) DegreeRun(v graph.VertexID) (uint32, graph.VertexID) {
	d, end := x.DegreeOf(v), v+1
	for int(end-x.lo) < len(x.offs)-1 && x.DegreeOf(end) == d {
		end++
	}
	return d, end
}

func (x *degIndex) NextZeroDegree(v, hi graph.VertexID) graph.VertexID {
	for ; v < hi; v++ {
		if x.DegreeOf(v) == 0 {
			return v
		}
	}
	return hi
}

// writeEntryFile writes entries to a device file in the given layout and
// returns the BlockLayout addressing it. A nil codec is the fixed-entry
// form (DOS v1, CSR): no offset table, blocks addressed arithmetically.
func writeEntryFile(t *testing.T, dev *storage.Device, name string, entries []uint32, codec storage.Codec, blockEntries int64) storage.BlockLayout {
	t.Helper()
	adj := storage.BlockLayout{Codec: storage.CodecRaw, BlockEntries: blockEntries, NumEntries: int64(len(entries))}
	if codec != nil {
		adj.Codec = codec
		adj.BlockOffs = []int64{0}
	}
	var data []byte
	for b := int64(0); b < adj.NumBlocks(); b++ {
		data = adj.Codec.EncodeBlock(data, entries[b*blockEntries:b*blockEntries+adj.EntriesIn(b)])
		if codec != nil {
			adj.BlockOffs = append(adj.BlockOffs, int64(len(data)))
		}
	}
	must(t, storage.WriteAll(dev, name, data))
	return adj
}

// prefetchShape draws the prefetcher's file — n entries in blocks of be —
// its ascending ranges (gaps, shared blocks, empty ones), the blocks the
// producer fetches for them (on a fixed-entry file every block a range
// touches, clipped to it; on an encoded one every block once), a fault,
// and where the stream stops: never, before its first window, or a few
// windows in.
func (d seamDraw) prefetchShape() (be, n int64, ranges []entryRange, fetched []int64, fault string, stop int64) {
	r := d.draws(0x5e10)
	be = int64(storage.DefaultBlockSize / 4)
	fmt.Sscan(d.Val("block"), &be)
	n = be*(1+r(3)) + r(be) + r(300)
	for pos, k := int64(0), r(6); k >= 0; k-- {
		start := min(pos+[]int64{0, 1, r(be), r(n / 3)}[r(4)], n)
		end := min(start+[]int64{0, 1 + r(be), be + r(n)}[r(3)], n)
		ranges, pos = append(ranges, entryRange{start, end}), end
	}
	for _, rg := range ranges {
		for b := rg.start / be; rg.end > rg.start && b <= (rg.end-1)/be; b++ {
			if d.Val("format") == "v1" || !slices.Contains(fetched, b) {
				fetched = append(fetched, b)
			}
		}
	}
	fault = []string{"none", "fail", "corrupt"}[r(3)]
	if fault != "none" && len(fetched) == 0 || fault == "corrupt" && d.Val("format") != "groupvarint" {
		fault = "none"
	}
	stop = 1 << 62
	if fault == "none" {
		stop = []int64{stop, stop, 0, r(64)}[r(4)]
	}
	return be, n, ranges, fetched, fault, stop
}

// fillsQueue reports whether a stream's producer fills the queue, blocks
// with the next block in hand and, once the consumer takes one, fetches
// another: more blocks to fetch than the queue holds and two, no fault.
func fillsQueue(fetched []int64, fault string) bool {
	return fault == "none" && int64(len(fetched)) >= sioQueueDepth+2
}

// await spins until cond holds or five seconds pass, and reports which.
func await(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// prefetch drives the Sio prefetcher directly over the
// draw's prefetchShape in its format and block size (at the default block,
// several 256 KiB blocks): windows of drawn sizes and hops, a drawn stop and
// a drawn fault (a failed read, a corrupt groupvarint block). Where the
// ranges fetch enough blocks, the producer first fills the queue: a stop
// then recycles the block in its hand, and a read on holds one more buffer
// than queue and consumer. Every window is held to a straight read and
// decode of the file, every stream to its pool, traffic, decode work and
// typed errors.
func (d seamDraw) prefetch(t *testing.T) {
	const pastRanges = 1 << 40 // an entry beyond every file
	be, n, ranges, fetched, fault, stop := d.prefetchShape()
	r := d.draws(0x5e11)
	codec, _ := storage.CodecByName(d.Val("format"))
	entries := make([]uint32, n)
	for i := range entries {
		entries[i] = uint32(r(100_003))
	}
	fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
	adj := writeEntryFile(t, fd.Device, "e", entries, codec, be)
	if _, err := openEntryStream(fd.Device, adj, "missing", nil, nil); err == nil {
		t.Error("a stream over a missing file opened")
	}
	var want []graph.VertexID // the straight read
	data, err := storage.ReadAllFile(fd.Device, "e")
	must(t, err)
	for b := int64(0); b < adj.NumBlocks(); b++ {
		lo, hi := adj.BlockRange(b)
		dec, err := adj.Codec.DecodeBlock(nil, data[lo:hi])
		must(t, err)
		for _, v := range dec {
			want = append(want, graph.VertexID(v))
		}
	}
	var fetchedBytes int64
	for _, b := range fetched {
		lo, hi := adj.BlockRange(b)
		fetchedBytes += hi - lo
	}
	if adj.FixedEntries() { // reads clipped to the ranges
		fetchedBytes = 0
		for _, rg := range ranges {
			fetchedBytes += 4 * (rg.end - rg.start)
		}
	}
	if _, err := (&memEntryStream{data: want}).window(int64(len(want)), 1); !errors.Is(err, errAdjExhausted) {
		t.Errorf("past the resident entries: %v", err)
	}

	bad, plan := int64(0), storage.FaultPlan{}
	switch fault {
	case "fail":
		plan.FailAtOps = []int64{1 + r(int64(len(fetched)))}
		bad = fetched[plan.FailAtOps[0]-1]
	case "corrupt": // the block's count kept, everything after it undecodable
		bad = fetched[r(int64(len(fetched)))]
		lo, hi := adj.BlockRange(bad)
		for i := lo + 1; i < hi; i++ {
			data[i] = 0xFF
		}
		must(t, storage.WriteAll(fd.Device, "e", data))
	}
	before, gets0 := pooledOutstanding(), pooled.gets.Load()
	pooled.peak.Store(before)
	fd.ResetStats()
	fd.Arm(plan)
	ps := &pipeStats{}
	s, err := openEntryStream(fd.Device, adj, "e", slices.Clone(ranges), ps)
	must(t, err)
	windows, outgrew := int64(0), false
	if fillsQueue(fetched, fault) {
		// The producer fills the queue and blocks handing over the next
		// block, decoded: the block a stop must recycle. Each block took a
		// buffer for its bytes and one for its entries.
		if !await(func() bool { return pooled.gets.Load()-gets0 >= 2*(sioQueueDepth+1) }) {
			t.Fatalf("the producer took %d pooled buffers, never filling the queue", pooled.gets.Load()-gets0)
		}
		if stop > 0 {
			// The consumer takes the first block and the producer the bytes
			// of the next: the queue full and a buffer in each hand, a
			// high water the producer publishes just after counting it.
			first := ranges[slices.IndexFunc(ranges, func(rg entryRange) bool { return rg.end > rg.start })].start
			if w, err := s.window(first, 1); err != nil || w[0] != want[first] {
				t.Fatalf("window(%d, 1) of a full queue: %v, %v", first, w, err)
			}
			if !await(func() bool { return pooled.peak.Load()-before >= sioQueueDepth+2 }) {
				t.Errorf("%d block-sized buffers out at once with the queue full, want %d", pooled.peak.Load()-before, sioQueueDepth+2)
			}
		}
	}
	for _, rg := range ranges {
		for off := rg.start + []int64{0, 0, r(be + 1), r(3 * be)}[r(4)]; off < rg.end && windows < stop && err == nil; windows++ {
			n := min([]int64{1 + r(8), 1 + r(be), be + r(be)}[r(3)], rg.end-off)
			outgrew = outgrew || n > workerBatchEntries
			var w []graph.VertexID
			if w, err = s.window(off, int(n)); err != nil {
				break
			}
			if int64(len(w)) < n || !slices.Equal(w[:n], want[off:off+n]) {
				t.Fatalf("window(%d, %d) of %v: %d entries, want %v", off, n, ranges, len(w), want[off:off+n])
			}
			if off >= s.blk.start && off+n <= s.blk.end && &w[0] != &s.blk.ents[off-s.blk.start] {
				t.Errorf("window(%d, %d) lies in block [%d,%d), yet is no view of it", off, n, s.blk.start, s.blk.end)
			}
			off += n + []int64{0, 0, 0, r(be), r(3 * be)}[r(5)]
		}
	}
	if windows < stop && err == nil {
		_, err = s.window(pastRanges, 1)
	}
	if windows < stop {
		if _, again := s.window(pastRanges, 1); again != err {
			t.Errorf("a failed stream's next window: %v, then %v", err, again)
		}
		// The producer stops at a failed read or an undecodable block.
		sentinel, prefix := errAdjExhausted, ""
		switch fault {
		case "fail":
			sentinel, prefix = storage.ErrInjected, fmt.Sprintf("core: reading block %d at byte ", bad)
		case "corrupt":
			sentinel, prefix = storage.ErrCorruptBlock, fmt.Sprintf("core: decoding block %d: ", bad)
		}
		if !errors.Is(err, sentinel) || !strings.HasPrefix(err.Error(), prefix) || fault == "fail" && fd.Ops() != plan.FailAtOps[0] {
			t.Errorf("%s of block %d: the stream ends %v after %d device operations", fault, bad, err, fd.Ops())
		}
	}
	if fault == "none" && windows < stop {
		// Every fetched block read once, and decoded: the codec consumed
		// every byte read.
		raw, enc := int64(0), int64(0)
		if !adj.FixedEntries() {
			for _, b := range fetched {
				raw += 4 * adj.EntriesIn(b)
			}
			enc = fetchedBytes
		}
		if st := fd.Stats(); st.ReadBytes != fetchedBytes || st.ReadOps != int64(len(fetched)) || ps.codecRawB.Load() != raw || ps.codecEncB.Load() != enc {
			t.Errorf("over %v: %d reads of %d bytes, %d decoded into %d; want %d of %d, %d into %d",
				ranges, st.ReadOps, st.ReadBytes, ps.codecEncB.Load(), ps.codecRawB.Load(), len(fetched), fetchedBytes, enc, raw)
		}
		// The Dispatcher's buffers: the queue's, one block in each hand,
		// the flat buffer and, encoded, the producer's decode scratch —
		// and, while a straddling window outgrows the flat buffer, the
		// larger one that replaces it.
		if peak := pooled.peak.Load() - before + int64(b2i(!adj.FixedEntries())); peak > sioQueueDepth+4+int64(b2i(outgrew)) {
			t.Errorf("the stream held %d block-sized buffers at once", peak)
		}
	}
	s.stop()
	fd.Disarm()
	if got := pooledOutstanding(); got != before {
		t.Errorf("%d pooled buffers outstanding after the stream stopped, %d before", got, before)
	}
}

// flatLayout is a Layout of n vertices and no edges: the MsgManager's
// partitions at sizes no converted test graph reaches.
type flatLayout struct {
	n   int
	dev *storage.Device
}

func (l flatLayout) NumVertices() int                                   { return l.n }
func (l flatLayout) NumEdges() int64                                    { return 0 }
func (l flatLayout) IndexBytes() int64                                  { return 0 }
func (l flatLayout) LoadIndex() error                                   { return nil }
func (l flatLayout) DegreeOf(graph.VertexID) uint32                     { return 0 }
func (l flatLayout) DegreeRun(graph.VertexID) (uint32, graph.VertexID)  { return 0, graph.VertexID(l.n) }
func (l flatLayout) OffsetOf(graph.VertexID) int64                      { return 0 }
func (l flatLayout) NextZeroDegree(x, hi graph.VertexID) graph.VertexID { return min(x, hi) }
func (l flatLayout) EdgesFile() string                                  { return "flat.edges" }
func (l flatLayout) Device() *storage.Device                            { return l.dev }
func (l flatLayout) NewToOld() ([]graph.VertexID, error)                { return nil, nil }
func (l flatLayout) Adj() storage.BlockLayout                           { return storage.RawBlockLayout(0) }

// drainEngine builds an engine ready for direct load / drain / store calls:
// buffers made and message stores created — what Run sets up before its
// first partition.
func drainEngine[V any](t *testing.T, l Layout, prog Program[V, uint32], vc graph.Codec[V], mc graph.Codec[uint32], opts Options) *Engine[V, uint32] {
	t.Helper()
	eng, err := New[V, uint32](l, prog, vc, mc, opts)
	must(t, err)
	eng.makeMsgBufs()
	for p := 0; p < eng.NumPartitions(); p++ {
		_, err := eng.dev.Create(eng.msgFile(p))
		must(t, err)
	}
	return eng
}

// drainShape draws the drain round's sizes: a flat layout of n vertices,
// the records pending for the largest partition — spilled ones in its file,
// up to four device blocks of them, and a tail in its buffer, as much as
// leaves room for one more — and what goes wrong on the first try.
func (d seamDraw) drainShape() (n, spilled, tail int64, fault string) {
	r := d.draws(0xd1a1)
	per := int64(storage.DefaultBlockSize / d.rec())
	_, eff := d.buf()
	n = 1000 + r(100_000)
	spilled = []int64{0, 1, per - 1, per, per + 1, 3*per + r(per)}[r(6)]
	tail = r(int64(eff / d.rec()))
	return n, spilled, tail, []string{"none", "fail", "crash", "torn"}[r(4)]
}

// straddles reports whether the drain round carries a record across a
// device-block boundary: a 6-byte record does at every boundary, and the
// spilled file reaches one.
func (d seamDraw) straddles() bool {
	_, spilled, _, _ := d.drainShape()
	return d.rec() == 6 && spilled > int64(storage.DefaultBlockSize/d.rec())
}

// drainRound runs the MsgManager's round — load, drain, store, through the
// one staging buffer — on twin engines over a flat layout in the draw's
// partitions and buffers, one draining block by block (drainMessages), one
// record by record (drainMessagesRef): the smallest partition first, then
// the largest with the drawn pending records. A drawn fault — a failed or
// crashed drain read, a torn file — fails the first try typed, leaving the
// file and tail whole for a second try from the load. The twins end with
// the same state file, ledger, bits, drain heat and message-store traffic.
func (d seamDraw) drainRound(t *testing.T) {
	n, spilled, tail, fault := d.drainShape()
	r := d.draws(0xd2a2)
	parts, rec := d.parts(), int64(d.rec())
	opt, eff := d.buf()
	watched := d.Val("observe") == "all" || d.Val("observe") == "registry"
	states := make([]byte, 12*n)
	for i := range states {
		states[i] = byte(r(256))
	}
	twin := func() (*Engine[witnessVal, uint32], *storage.FaultDevice, *obs.Registry) {
		fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
		must(t, storage.WriteAll(fd.Device, "graphz.vstate", states))
		opts := Options{MemoryBudget: pipelineOverheadBytes + parts*int64(eff) + (n+parts-1)/parts*12, MsgBufferBytes: opt}
		if watched {
			opts.Obs = obs.NewRegistry()
		}
		eng := drainEngine(t, flatLayout{int(n), fd.Device}, d.program(d.Val("route"), 0), vcodec(d.Val("route")), d.mcodec(), opts)
		if int64(eng.NumPartitions()) != parts {
			t.Fatalf("%d vertices in %d partitions, want %d", n, eng.NumPartitions(), parts)
		}
		if d.Val("selective") == "on" {
			eng.sel = newEmptyActiveSet(int(n))
		}
		return eng, fd, opts.Obs
	}
	got, fd, gotReg := twin()
	want, _, wantReg := twin()
	order := []int{0}
	if parts > 1 {
		order = append(order, int(parts-1))
	}
	partial, faulted := int64(0), false // the records a faulted first try applied
	for i, q := range order {
		sp, tl := spilled, tail
		if i+1 < len(order) {
			sp, tl = 0, min(tail, 1+r(3))
		}
		lo, hi := got.parts.starts[q], got.parts.starts[q+1]
		pendingRecords(t, got, q, sp, tl)
		pendingRecords(t, want, q, sp, tl)
		must(t, want.loadVertices(lo, hi, 1))
		must(t, drainMessagesRef(want, q, lo))
		must(t, want.storeVertices(lo, hi))

		must(t, got.loadVertices(lo, hi, 1))
		f, err := got.dev.Open(got.msgFile(q))
		must(t, err)
		size, blocks := f.Size(), (f.Size()+storage.DefaultBlockSize-1)/storage.DefaultBlockSize
		plan, torn := storage.FaultPlan{}, int64(0)
		switch {
		case i+1 < len(order) || fault == "none":
		case fault == "fail" && blocks > 0:
			plan.FailAtOps = []int64{1 + r(blocks)}
		case fault == "crash" && blocks > 0:
			plan.CrashAtOp = 1 + r(blocks)
		case fault == "torn":
			torn = 1 + r(rec-1)
			_, err := f.Append(make([]byte, torn))
			must(t, err)
		}
		fd.Arm(plan)
		applied := got.c.Applied
		err = got.drainMessages(q, lo)
		ops := fd.Ops()
		fd.Disarm()
		if sp+tl == 0 && ops != 0 {
			t.Errorf("an empty drain made %d device operations", ops)
		}
		if k := max(plan.CrashAtOp, slices.Max(append(plan.FailAtOps, 0))); k > 0 || torn > 0 {
			// The whole records of every block read before the fault were
			// applied; the file and the tail stay for the second try.
			wantApplied := (k - 1) * storage.DefaultBlockSize / rec
			sentinel, name := error(storage.ErrInjected), fmt.Sprintf("draining messages for partition %d", q)
			if plan.CrashAtOp > 0 {
				sentinel = storage.ErrCrashed
			}
			if torn > 0 {
				wantApplied, sentinel, name = 0, nil, "torn"
			}
			if err == nil || sentinel != nil && !errors.Is(err, sentinel) || !strings.Contains(err.Error(), name) ||
				got.c.Applied-applied != wantApplied || f.Size() != size+torn || int64(len(got.msgBufs[q])) != tl*rec {
				t.Fatalf("%s at drain operation %d: %v after %d records applied (want %d), %d of %d bytes left, %d tail bytes",
					fault, k, err, got.c.Applied-applied, wantApplied, f.Size(), size+torn, len(got.msgBufs[q]))
			}
			partial, faulted = got.c.Applied-applied, true
			must(t, f.Truncate(size))
			got.verts = nil // a second try: nothing resident, one partition included
			must(t, got.loadVertices(lo, hi, 1))
			err = got.drainMessages(q, lo)
		}
		must(t, err)
		must(t, got.storeVertices(lo, hi))
		if sz, _ := got.dev.Size(got.msgFile(q)); sz != 0 || len(got.msgBufs[q]) != 0 {
			t.Errorf("partition %d: %d file bytes and %d buffer bytes left pending", q, sz, len(got.msgBufs[q]))
		}
	}
	ledger := got.c
	ledger.Applied -= partial
	gotStates, err := storage.ReadAllFile(got.dev, got.vstateFile())
	must(t, err)
	wantStates, err := storage.ReadAllFile(want.dev, want.vstateFile())
	must(t, err)
	if !slices.Equal(gotStates, wantStates) || ledger != want.c || !reflect.DeepEqual(got.sel, want.sel) {
		t.Errorf("the block-wise drain: ledger %+v, same states %v, same bits %v; per record: %+v",
			got.c, slices.Equal(gotStates, wantStates), reflect.DeepEqual(got.sel, want.sel), want.c)
	}
	if watched && !reflect.DeepEqual(drainHeat(gotReg), drainHeat(wantReg)) {
		t.Errorf("drain heat %v, per record %v", drainHeat(gotReg), drainHeat(wantReg))
	}
	if gotIO, wantIO := got.dev.FileStats(), want.dev.FileStats(); !faulted && !reflect.DeepEqual(gotIO, wantIO) {
		t.Errorf("device traffic %+v, per record %+v", gotIO, wantIO)
	}
	// ApplyEach against Apply in a loop, on the last partition drained: a
	// message each for destinations drawn in it and just outside it, and a
	// mark for each whose Apply reported a change.
	lo, hi := got.partLo, got.partHi
	dsts, ms, applied := make([]graph.VertexID, r(40)), make([]uint32, 40), 0
	marks, wantMarks := newEmptyActiveSet(int(hi)+2), newEmptyActiveSet(int(hi)+2)
	for k := range dsts {
		dsts[k], ms[k] = []graph.VertexID{lo + graph.VertexID(r(int64(hi-lo))), hi + graph.VertexID(r(2)), lo - 1}[r(3)], uint32(r(1<<16))
		if i := dsts[k] - lo; i < hi-lo {
			if want.prog.Apply(&want.verts[i], ms[k]) {
				wantMarks.set(dsts[k])
			}
			applied++
		}
	}
	if n := got.each.ApplyEach(marks, got.verts, lo, dsts, ms); n != applied || !slices.Equal(got.verts, want.verts) || !reflect.DeepEqual(marks, wantMarks) {
		t.Errorf("ApplyEach over [%d,%d) and %v applied %d of %d; same states %v, same marks %v", lo, hi, dsts, n, applied, slices.Equal(got.verts, want.verts), reflect.DeepEqual(marks, wantMarks))
	}
}

// drainHeat sums a registry's drain heat per state-file block.
func drainHeat(reg *obs.Registry) map[int64]int64 {
	cells := map[int64]int64{}
	for _, c := range reg.Heatmap().Cells() {
		cells[c.Block] += c.DrainMsgs
	}
	return cells
}

// pendingRecords leaves spilled records in partition q's message file and
// tail more in its buffer, destinations in the partition, from a fixed
// pseudo-random sequence.
func pendingRecords[V any](t *testing.T, eng *Engine[V, uint32], q int, spilled, tail int64) {
	t.Helper()
	lo, hi := eng.parts.starts[q], eng.parts.starts[q+1]
	var recs []byte
	for i, x := int64(0), uint32(2463534242)+uint32(q); i < spilled+tail; i++ {
		x = x*1664525 + 1013904223
		recs = binary.LittleEndian.AppendUint32(recs, uint32(lo)+(x>>4)%uint32(hi-lo))
		recs = append(recs, make([]byte, eng.msize)...)
		eng.mcodec.Encode(recs[len(recs)-eng.msize:], x>>9)
	}
	split := spilled * int64(4+eng.msize)
	if f, err := eng.dev.Open(eng.msgFile(q)); err != nil || split > 0 {
		must(t, err)
		_, err = f.Append(recs[:split])
		must(t, err)
	}
	eng.msgBufs[q] = append(eng.msgBufs[q], recs[split:]...)
}

// drainMessagesRef is the drain as it was written per record — one
// storage.Reader call, one copy and one apply for each — kept as the
// reference the block-wise drain must match.
func drainMessagesRef[V, M any](e *Engine[V, M], p int, lo graph.VertexID) error {
	rec := 4 + e.msize
	apply := func(b []byte) {
		dst := graph.VertexID(binary.LittleEndian.Uint32(b))
		e.prog.Apply(&e.verts[dst-lo], e.mcodec.Decode(b[4:]))
		e.c.Applied++
		if e.sel != nil {
			e.sel.set(dst)
		}
		e.eo.heat.AddDrain(e.vstateFile(), e.vstateBlock(dst), 1)
	}
	f, err := e.dev.Open(e.msgFile(p))
	if err != nil {
		return err
	}
	r := storage.NewReader(f)
	buf := make([]byte, rec)
	for {
		err := r.ReadFull(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		apply(buf)
	}
	if err := f.Truncate(0); err != nil {
		return err
	}
	mem := e.msgBufs[p]
	for off := 0; off+rec <= len(mem); off += rec {
		apply(mem[off : off+rec])
	}
	e.msgBufs[p] = mem[:0]
	return nil
}

// padCodec encodes a uint32 message into its low two bytes, giving the
// drain 6-byte records, which straddle device blocks.
type padCodec struct{}

func (padCodec) Size() int { return 2 }

func (padCodec) Encode(b []byte, m uint32) { binary.LittleEndian.PutUint16(b, uint16(m)) }

func (padCodec) Decode(b []byte) uint32 { return uint32(binary.LittleEndian.Uint16(b)) }

// seamSeeds is the seed corpus: a greedy pairwise cover of the legal axis
// values, among them a drain that straddles device blocks and a sparse
// schedule at 1-entry blocks (TestSeamCorpusCoverage holds it to that).
var seamSeeds = []uint64{
	2290, 76, 3147, 9938, 17118, 3478, 25269, 32155, 53049, 8072, 5572, 19500, 46189, 48862,
	41445, 125, 1690, 25552, 9016, 46362, 5497, 1812, 2682, 15146, 4471, 12222, 2241, 91,
	313, 1009, 1577, 4143, 176, 785, 228, 1, 48, 79, 0, 174, 2928, 305,
}

// witnessLabel is minLabel written as a scatter program — one SendAll or
// SendEach per update — whose Apply also folds every message, in arrival
// order, into a hash: any difference in which messages a vertex was
// applied, or in what order, changes its state bytes. The hash steers
// nothing, so the program stays frontier-safe.
type witnessVal struct{ label, pending, trace uint32 }

type witnessCodec struct{}

func (witnessCodec) Size() int { return 12 }

func (witnessCodec) Encode(b []byte, v witnessVal) {
	binary.LittleEndian.PutUint32(b, v.label)
	binary.LittleEndian.PutUint32(b[4:], v.pending)
	binary.LittleEndian.PutUint32(b[8:], v.trace)
}

func (witnessCodec) Decode(b []byte) witnessVal {
	return witnessVal{binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:]), binary.LittleEndian.Uint32(b[8:])}
}

func (c witnessCodec) EncodeAll(b []byte, vs []witnessVal) {
	for i, v := range vs {
		c.Encode(b[12*i:], v)
	}
}

func (c witnessCodec) DecodeAll(vs []witnessVal, b []byte) {
	for i := range vs {
		vs[i] = c.Decode(b[12*i:])
	}
}

// perValue runs a codec with its bulk form, if it has one, hidden from New:
// the engine's per-value loop.
type perValue[T any] struct{ graph.Codec[T] }

// witnessLabel's pad says its records are padCodec's 6-byte ones, not
// Uint32Codec's 8: its drain delegate decodes with that codec. each says
// which vertices send per edge: the odd ones (0), none (-1) or all (1).
// root, when not nil, makes it the rooted witness: every vertex starts
// unlabelled and only the root pending its ID, so only the root has work
// after Init — its initial frontier.
type witnessLabel struct {
	pad  bool
	each int
	root []graph.VertexID
}

func (p witnessLabel) Init(id graph.VertexID, deg uint32) witnessVal {
	if p.root != nil && id != p.root[0] {
		return witnessVal{label: 0xffff, pending: 0xffff}
	} else if p.root != nil {
		return witnessVal{label: 0xffff, pending: uint32(id)}
	}
	return witnessVal{label: uint32(id), pending: uint32(id)}
}

// Update reads the vertex's trace after it sends, so a message sent to the
// vertex itself (the rmat draw's self-loops) must have been applied by then.
// A message is the label over a 7-bit tag: 0 from SendAll, and per edge the
// destination's low bits, so an edge's message applied to another edge's
// destination changes the trace.
func (p witnessLabel) Update(ctx *Context[uint32], id graph.VertexID, v *witnessVal, adj []graph.VertexID) {
	if ctx.Iteration() > 0 || p.root != nil {
		if v.pending >= v.label {
			return
		}
		v.label = v.pending
		ctx.MarkActive()
	} else if v.pending < v.label {
		ctx.MarkActive() // as minLabel's
	}
	if p.each > 0 || p.each == 0 && id%2 == 1 {
		ms := ctx.Messages(len(adj))
		for i, a := range adj {
			ms[i] = v.label<<7 | uint32(a)&127
		}
		ctx.SendEach(adj, ms)
	} else {
		ctx.SendAll(adj, v.label<<7) // sinks send to nobody: an empty dsts
	}
	v.trace = v.trace<<1 | v.trace>>31
}

func (witnessLabel) Apply(v *witnessVal, m uint32) bool {
	v.trace = v.trace*1664525 + m + 1
	v.pending, m = min(v.pending, m>>7), v.pending
	return v.pending != m
}

// InitialFrontier: as minLabel, or the root — the trace steers nothing.
func (p witnessLabel) InitialFrontier() []graph.VertexID { return p.root }

// ApplyAll is the BulkApplier delegate, so witnessLabel as written takes
// the route that inlines Apply.
func (p witnessLabel) ApplyAll(f *Frontier, vs []witnessVal, lo graph.VertexID, dsts []graph.VertexID, m uint32) int {
	return ApplyAll(f, vs, lo, dsts, m, func(v *witnessVal, m uint32) bool { return p.Apply(v, m) })
}

// ApplyEach is the EachApplier delegate.
func (p witnessLabel) ApplyEach(f *Frontier, vs []witnessVal, lo graph.VertexID, dsts []graph.VertexID, ms []uint32) int {
	return ApplyEach(f, vs, lo, dsts, ms, func(v *witnessVal, m uint32) bool { return p.Apply(v, m) })
}

// UpdateRun is the RunUpdater delegate: witnessLabel as written takes the
// run route on every pass that has one.
func (p witnessLabel) UpdateRun(ctx *Context[uint32], lo graph.VertexID, vs []witnessVal, adj []graph.VertexID, deg uint32) {
	UpdateRun(ctx, lo, vs, adj, deg, func(ctx *Context[uint32], id graph.VertexID, v *witnessVal, a []graph.VertexID) {
		p.Update(ctx, id, v, a)
	})
}

// ApplyRecords is the RecordApplier delegate.
func (p witnessLabel) ApplyRecords(vs []witnessVal, lo graph.VertexID, recs []byte, rec int) int {
	if p.pad {
		return ApplyRecords(vs, lo, recs, rec, func(b []byte) uint32 { return padCodec{}.Decode(b) }, func(v *witnessVal, m uint32) bool { return p.Apply(v, m) })
	}
	return ApplyRecords(vs, lo, recs, rec, func(b []byte) uint32 { return graph.Uint32Codec{}.Decode(b) }, func(v *witnessVal, m uint32) bool { return p.Apply(v, m) })
}

// breaker is witnessLabel breaking the contract the drawn way: its which
// delegate reports off more than it applied, every vertex with an edge hands
// SendEach one message too few ("short"), or vertex 0 sends once to the top
// of the ID space ("stray") by Send, SendAll or SendEach as off is -1, 0 or
// 1 (the rooted witness's root instead, the one vertex with work then).
// broke is the poll count of the first breach.
type breaker struct {
	witnessLabel
	which        string
	off          int
	polls, broke *int
}

func (p breaker) Update(ctx *Context[uint32], id graph.VertexID, v *witnessVal, adj []graph.VertexID) {
	if p.which == "short" && len(adj) > 0 {
		p.count("short", 1, 1)
		ctx.SendEach(adj, ctx.Messages(len(adj)-1))
		return
	}
	if p.which == "stray" && ctx.Iteration() == 0 && id == append(p.root, 0)[0] { // the root, or vertex 0
		switch top := []graph.VertexID{^graph.VertexID(0)}; p.off {
		case -1:
			ctx.Send(top[0], 0)
		case 0:
			ctx.SendAll(top, 0)
		default:
			ctx.SendEach(top, ctx.Messages(1))
		}
	}
	p.witnessLabel.Update(ctx, id, v, adj)
}

func (p breaker) UpdateRun(ctx *Context[uint32], lo graph.VertexID, vs []witnessVal, adj []graph.VertexID, deg uint32) {
	UpdateRun(ctx, lo, vs, adj, deg, p.Update)
}

func (p breaker) ApplyAll(f *Frontier, vs []witnessVal, lo graph.VertexID, dsts []graph.VertexID, m uint32) int {
	return p.count("ApplyAll", p.witnessLabel.ApplyAll(f, vs, lo, dsts, m), len(dsts))
}

func (p breaker) ApplyEach(f *Frontier, vs []witnessVal, lo graph.VertexID, dsts []graph.VertexID, ms []uint32) int {
	return p.count("ApplyEach", p.witnessLabel.ApplyEach(f, vs, lo, dsts, ms), len(dsts))
}

func (p breaker) ApplyRecords(vs []witnessVal, lo graph.VertexID, recs []byte, rec int) int {
	return p.count("ApplyRecords", p.witnessLabel.ApplyRecords(vs, lo, recs, rec), len(recs)/rec)
}

// count returns what a delegate applied, n of the want it was handed, plus
// off when it is the one that breaks and applied anything. A stray breaker
// breaks where a delegate applied fewer than want: the stray was skipped.
func (p breaker) count(which string, n, want int) int {
	breaks := which == p.which && n > 0
	if (breaks || p.which == "stray" && n < want) && *p.broke < 0 {
		*p.broke = *p.polls
	}
	if !breaks {
		return n
	}
	return n + p.off
}

// TestApplyAllMiscountFailsRun: the engine learns how many messages were
// applied from the program, so a program that miscounts gets a typed error
// and no Result — not a ledger in which inline + buffered != sent. The
// ledger the aborted run publishes still adds up: it holds what the buffer
// pass and the drain found, not what the program said. ApplyAll's count is
// the one-partition route's; a partitioned run applies records, and a
// miscounting ApplyRecords stops it after iteration 0's first partition,
// at its first in-place flush — under static messages after its second,
// the first to drain.
func TestApplyAllMiscountFailsRun(t *testing.T) {
	g := buildDOS(t, gen.RMAT(8, 1500, gen.NaturalRMAT, 82))
	for _, parts := range []int64{1, 4, -4} {
		for _, off := range []int{-1, 1} {
			drain := parts < 0
			parts := max(parts, -parts)
			t.Run(fmt.Sprintf("%sparts=%d/off=%+d", map[bool]string{true: "drain/"}[drain], parts, off), func(t *testing.T) {
				reg := obs.NewRegistry()
				opts := Options{MemoryBudget: 64 << 20, DynamicMessages: !drain, MsgBufferBytes: 64, Obs: reg}
				which, polls, broke := "ApplyAll", 0, -1
				if parts > 1 {
					opts.MemoryBudget, which = budgetForPartitions(g, 12, parts, 64), "ApplyRecords"
				}
				bp := breaker{witnessLabel{each: -1}, which, off, &polls, &broke}
				eng, err := New[witnessVal, uint32](DOSLayout(g), bp, witnessCodec{}, graph.Uint32Codec{}, opts)
				must(t, err)
				res, err := eng.Run()
				if !errors.Is(err, ErrProgramContract) {
					t.Fatalf("err = %v, want ErrProgramContract", err)
				}
				if res != (Result{}) {
					t.Errorf("a failed run returned %+v", res)
				}
				first := int64(eng.parts.starts[1+b2i(drain)])
				if eng.NumPartitions() != int(parts) || eng.c.Updates != first {
					t.Errorf("%d partitions, %d updates: want %d and the run stopped after the failing partition's %d",
						eng.NumPartitions(), eng.c.Updates, parts, first)
				}
				checkLedgerViews(t, eng, reg, checkpoint.Counters{})
			})
		}
	}
}

// safeProgram is what noBulk keeps of the program it wraps: Program's
// methods and the FrontierSafe declaration, forwarded and no more.
type safeProgram[V, M any] interface {
	Program[V, M]
	FrontierSafe
}

// noBulk runs a program with its ApplyAll, if it has one, hidden from New
// (the embedded interface has no such method): the engine's default bulk
// route, ApplyAll over the bound Apply.
type noBulk[V, M any] struct{ safeProgram[V, M] }

// sendLoop degrades a Context's SendAll and SendEach to their definition,
// Send in a loop: its engine's own SendAll route, captured once, over one
// destination a message.
func sendLoop[M any](ctx *Context[M]) {
	all := ctx.sendAll
	ctx.sendAll = func(dsts []graph.VertexID, m M) {
		for i := range dsts {
			all(dsts[i:i+1], m)
		}
	}
	ctx.sendEach = func(dsts []graph.VertexID, ms []M) {
		for i := range dsts {
			all(dsts[i:i+1], ms[i])
		}
	}
}

// ledgerProbe is a run context that, each time the engine polls it — on
// its own goroutine, once when Run starts and then before every partition
// — calls snap, and then answers as the context it wraps.
type ledgerProbe struct {
	context.Context
	snap func()
}

func (p ledgerProbe) Done() <-chan struct{} {
	p.snap()
	return p.Context.Done()
}

// ledgerAt returns the ledger before every partition visit of a process,
// and after its last.
func ledgerAt(p *proc) []counters { return append(slices.Clone(p.snaps[1:]), p.eng.c) }

// resultTwins maps each metric whose fact Result also reports to Result's
// value for it.
func resultTwins(r Result) map[string]int64 {
	return map[string]int64{
		"graphz_messages_inline_total":     r.MessagesInline,
		"graphz_messages_buffered_total":   r.MessagesBuffered,
		"graphz_messages_spilled_total":    r.MessagesSpilled,
		"graphz_blocks_scanned_total":      r.BlocksScanned,
		"graphz_blocks_skipped_total":      r.BlocksSkipped,
		"graphz_codec_bytes_raw_total":     r.CodecBytesRaw,
		"graphz_codec_bytes_encoded_total": r.CodecBytesEncoded,
		"graphz_codec_decode_ns_total":     int64(r.DecodeTime),
		"graphz_checkpoint_total":          r.Checkpoints,
		"graphz_checkpoint_bytes_total":    r.CheckpointBytes,
		"graphz_checkpoint_ns_total":       int64(r.CheckpointTime),
		"graphz_stage_sio_ns_total":        int64(r.Stages.Sio),
		"graphz_stage_dispatch_ns_total":   int64(r.Stages.Dispatch),
		"graphz_stage_worker_ns_total":     int64(r.Stages.Worker),
		"graphz_stage_drain_ns_total":      int64(r.Stages.Drain),
	}
}

// checkLedgerViews asserts that every view of the ledger agrees after a
// run, finished or aborted: each ledgerMetrics instrument equals its
// field, nothing is left unpublished, and the iteration rows sum to what
// the ledger gained over base (the restored counters of a resumed run,
// zero otherwise). It iterates the table, so a metric added later is
// covered the day it is added.
func checkLedgerViews[V, M any](t *testing.T, eng *Engine[V, M], reg *obs.Registry, base checkpoint.Counters) {
	t.Helper()
	for _, m := range ledgerMetrics {
		if got, want := reg.CounterValue(m.name), *m.field(&eng.c); got != want {
			t.Errorf("%s = %d, the ledger says %d", m.name, got, want)
		}
	}
	if eng.c != eng.published {
		t.Errorf("unpublished ledger tail: %+v published, %+v counted", eng.published, eng.c)
	}
	var sum obs.IterStats
	for _, row := range reg.Iters() {
		sum.MessagesInline += row.MessagesInline
		sum.MessagesBuffered += row.MessagesBuffered
		sum.MessagesSpilled += row.MessagesSpilled
		sum.BlocksSkipped += row.BlocksSkipped
	}
	c := eng.c
	want := obs.IterStats{
		MessagesInline:   c.Inline - base.Inline,
		MessagesBuffered: c.Buffered - base.Buffered,
		MessagesSpilled:  c.Spilled - base.Spilled,
		BlocksSkipped:    c.BlocksSkipped - base.BlocksSkipped,
	}
	if sum != want {
		t.Errorf("rows sum to %+v, the ledger gained %+v", sum, want)
	}
	if c.Inline+c.Buffered != c.Sent {
		t.Errorf("inline (%d) + buffered (%d) != sent (%d)", c.Inline, c.Buffered, c.Sent)
	}
}

// checkWithinBudget asserts what plan promises of a run's memory timeline:
// at every sample the budget-accounted classes, the engine's own resident
// adjacency among them, stay within the budget. The scheduling bitmap is
// the one class plan leaves uncharged (New says why).
func checkWithinBudget(t *testing.T, samples []obs.MemSample) {
	t.Helper()
	if len(samples) == 0 {
		t.Error("no memory samples to hold to the budget")
	}
	for _, m := range samples {
		if used := m.ResidentBytes() - m.BitmapBytes; used > m.BudgetBytes {
			t.Errorf("iteration %d holds %d accounted bytes of a %d-byte budget: %+v", m.Iteration, used, m.BudgetBytes, m)
		}
	}
}

// checkModeledCompute asserts that the modeled clock's compute is a view of
// the ledger: every iteration's phase holds exactly the per-event prices of
// what the ledger gained during it, plus the charges kept where they happen
// — Init, the bytes moved, and the planner's scan, bounded here (a unit per
// block decided on, at most one more per vertex). Only a selective run
// skips a visit whole, after Init, moving and charging nothing; a resumed
// process loads the states it restored on its first visit.
func checkModeledCompute(t *testing.T, p *proc, start int) {
	t.Helper()
	eng, nParts := p.eng, p.eng.NumPartitions()
	snaps, iters := ledgerAt(p), p.res.Iterations-start
	if len(snaps) != iters*nParts+1 {
		t.Fatalf("%d ledger snapshots for %d iterations of %d partitions", len(snaps), iters, nParts)
	}
	compute := map[string]time.Duration{} // an iteration that charged nothing has no phase
	for _, ph := range p.clock.Phases() {
		compute[ph.Name] = ph.Compute
	}
	n := int64(eng.layout.NumVertices())
	// The one count the ledger holds for the clock alone, checked against
	// the graph: a full scan hands every entry to an Update, a selective
	// one at most that.
	if scans := int64(iters) * eng.layout.NumEdges(); eng.c.edges > scans || (eng.sel == nil && eng.c.edges != scans) {
		t.Errorf("ledger counts %d adjacency entries over %d iterations of %d", eng.c.edges, iters, eng.layout.NumEdges())
	}
	units := func(n int64, cost time.Duration) time.Duration { return time.Duration(n) * cost }
	pinned := start == 0 // one partition's states stay resident from the Init pass, or from a resumed process's first visit
	for i := start; i < p.res.Iterations; i++ {
		var want time.Duration
		var scanned int64 // blocks the planner decided on, in partitions it planned
		for q := 0; q < nParts; q++ {
			j := (i-start)*nParts + q
			a, b := snaps[j], snaps[j+1]
			want += units(b.Sent-a.Sent, sim.CostMessageSend) +
				units(b.Applied-a.Applied, sim.CostMessageApply) +
				units(b.Updates-a.Updates, sim.CostVertexUpdate) +
				units(b.edges-a.edges, sim.CostEdgeScan) +
				units((b.Buffered-a.Buffered)*int64((4+eng.msize)/4), sim.CostByteCopy4) // whole 4-byte units per record
			if !visited(eng, start, j, snaps) && eng.parts.starts[q] < eng.parts.starts[q+1] {
				if eng.sel == nil || b.edges != a.edges || b.BlocksScanned != a.BlocksScanned {
					t.Errorf("iteration %d: partition %d was skipped whole, selective %v, its ledger %+v → %+v", i, q, eng.sel != nil, a, b)
				}
				continue
			}
			scanned += b.BlocksScanned + b.BlocksSkipped - a.BlocksScanned - a.BlocksSkipped
			if nParts == 1 && !pinned {
				want += units(n*int64(eng.vsize)/4, sim.CostByteCopy4) // the load that pins them
				pinned = true
			}
			if nParts > 1 {
				// Stored every iteration, loaded every one but the first.
				moved := int64(eng.parts.starts[q+1]-eng.parts.starts[q]) * int64(eng.vsize) / 4
				if i > 0 {
					moved *= 2
				}
				want += units(moved, sim.CostByteCopy4)
			}
		}
		if i == 0 {
			want += units(n, sim.CostVertexUpdate) // Init
		}
		if nParts == 1 && pinned && i == p.res.Iterations-1 {
			want += units(n*int64(eng.vsize)/4, sim.CostByteCopy4) // the one flush
		}
		lo, hi := want+units(scanned, sim.CostActiveScan), want+units(scanned+n, sim.CostActiveScan)
		if i == 0 && eng.sel != nil && eng.prog.(FrontierSafe).InitialFrontier() == nil {
			hi = lo // every bit set: each partition streams fully, no bit is walked
		}
		if got := compute[fmt.Sprintf("iter%d", i)]; got < lo || got > hi {
			t.Errorf("iteration %d: modeled compute %v, the ledger prices it in [%v, %v]", i, got, lo, hi)
		}
	}
}

// checkSpans holds a traced process's spans to its ledger: a partition
// visit that ran has one sio, one dispatch and one worker span and one
// skipped whole has none; a drain span marks exactly the visits that found
// messages pending; and each checkpoint written and each restore has its
// span.
func checkSpans(t *testing.T, p *proc, start int) {
	t.Helper()
	nParts, snaps := p.eng.NumPartitions(), ledgerAt(p)
	spans := map[[2]int]map[string]int{}
	for _, s := range p.tr.Events() {
		k := [2]int{s.Iter, s.Part}
		if s.Part < 0 {
			k[0] = -1 // a checkpoint or a restore: the whole engine
		}
		if spans[k] == nil {
			spans[k] = map[string]int{}
		}
		spans[k][s.Stage]++
	}
	for j := 0; j+1 < len(snaps); j++ {
		got := spans[[2]int{start + j/nParts, j % nParts}]
		w := b2i(visited(p.eng, start, j, snaps))
		if got[obs.StageSio] != w || got[obs.StageDispatch] != w || got[obs.StageWorker] != w || got[obs.StageDrain] != b2i(p.pend[j] > 0) {
			t.Errorf("iteration %d, partition %d (visited %v, %d bytes pending): spans %v", start+j/nParts, j%nParts, w == 1, p.pend[j], got)
		}
	}
	if whole := spans[[2]int{-1, -1}]; int64(whole[obs.StageCheckpoint]) != p.res.Checkpoints || whole[obs.StageRestore] != b2i(start > 0) {
		t.Errorf("%d checkpoint and %d restore spans; %d checkpoints, resumed at %d",
			whole[obs.StageCheckpoint], whole[obs.StageRestore], p.res.Checkpoints, start)
	}
}
