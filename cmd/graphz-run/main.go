// Command graphz-run executes one of the six benchmark algorithms on a
// raw edge list with a chosen engine, reporting modeled runtime, IO, and
// energy. It is the quickest way to compare the engines on your own
// graph.
//
// Usage:
//
//	graphz-run -in graph.bin -algo pr -engine graphz [-device ssd] [-budget 8388608]
//	graphz-run -in graph.bin -algo bfs -engine xstream -source 12
//	graphz-run -in graph.bin -dos graph.dos -algo pr   # reuse graphz-convert output
//	graphz-run -gen rmat -gen-scale 12 -seed 7 -algo cc  # generated input, reproducible by seed
//	graphz-run -in graph.bin -algo pr -checkpoint-dir /tmp/ck   # durable run
//	graphz-run -in graph.bin -algo pr -checkpoint-dir /tmp/ck -resume  # continue after a crash
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"graphz/internal/bench"
	"graphz/internal/checkpoint"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/energy"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/graphchi"
	"graphz/internal/obs"
	"graphz/internal/sim"
	"graphz/internal/storage"
	"graphz/internal/xstream"
)

// exitHooks run on every exit path — normal return and fatal() — so
// resources like the metrics server drain even when the run dies early.
var exitHooks []func()

func runExitHooks() {
	hooks := exitHooks
	exitHooks = nil
	for i := len(hooks) - 1; i >= 0; i-- {
		hooks[i]()
	}
}

func main() {
	defer runExitHooks()
	var (
		in      = flag.String("in", "", "input raw edge file (required)")
		algo    = flag.String("algo", "pr", "algorithm: pr, bfs, cc, sssp, bp, rw")
		engine  = flag.String("engine", "graphz", "engine: graphz, graphchi, xstream")
		device  = flag.String("device", "ssd", "simulated device: hdd or ssd")
		budget  = flag.Int64("budget", 8<<20, "memory budget in bytes")
		dosPfx  = flag.String("dos", "", "prefix of pre-converted DOS files from graphz-convert (graphz engine only; skips conversion)")
		iters   = flag.Int("iters", 10, "iterations for pr/bp/rw")
		source  = flag.Int("source", -1, "bfs/sssp source (original ID; default: max-degree vertex)")
		top     = flag.Int("top", 5, "print the top-N result vertices")
		maddr   = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof/ on this address while the run is live (e.g. :8080, or :0 for a free port)")
		traceTo = flag.String("trace", "", "write one JSONL span per (iteration, partition, stage) to this file")
		repTo   = flag.String("report", "", "write the run-report JSON artifact (stage totals, memory timeline, block heatmap; analyze with graphz-report) to this file")
		ckDir   = flag.String("checkpoint-dir", "", "graphz: write iteration-boundary checkpoints to this host directory (see docs/DURABILITY.md)")
		ckEvery = flag.Int("checkpoint-every", 1, "graphz: checkpoint after every Nth iteration (with -checkpoint-dir)")
		ckKeep  = flag.Int("checkpoint-keep", 2, "graphz: checkpoints to retain (with -checkpoint-dir)")
		resume  = flag.Bool("resume", false, "graphz: resume from the newest checkpoint in -checkpoint-dir; rerun with the same input (same -in, or same -gen and -seed) so the rebuilt graph matches")
		genKind = flag.String("gen", "", "generate the input instead of -in: rmat, zipf, er, or grid")
		genScl  = flag.Int("gen-scale", 10, "rmat generator: scale (2^scale vertices)")
		genV    = flag.Int("gen-vertices", 1024, "zipf/er generator: vertices; grid: side length")
		genE    = flag.Int("gen-edges", 8192, "rmat/zipf/er generator: edges")
		genS    = flag.Float64("gen-s", 1.2, "zipf generator: skew exponent")
		seed    = flag.Uint64("seed", 1, "generator seed; the same seed always yields the same graph and run")
	)
	flag.Parse()
	if (*in == "") == (*genKind == "") {
		fmt.Fprintln(os.Stderr, "graphz-run: exactly one of -in or -gen is required")
		flag.Usage()
		os.Exit(2)
	}
	if *engine != "graphz" {
		flag.Visit(func(f *flag.Flag) {
			if slices.Contains(graphzOnly, f.Name) {
				usageError(fmt.Errorf("-%s needs -engine graphz, got %q", f.Name, *engine))
			}
		})
	}
	if *resume && *ckDir == "" {
		usageError(fmt.Errorf("-resume needs -checkpoint-dir"))
	}
	kind, err := storage.ParseKind(*device)
	if err != nil {
		usageError(err)
	}

	clock := sim.NewClock()
	dev := storage.NewDevice(kind, storage.Options{Clock: clock})
	if *in != "" {
		raw, err := os.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
		if err := storage.WriteAll(dev, "raw", raw); err != nil {
			fatal(err)
		}
	} else {
		genEdges, err := gen.Generate(gen.Spec{Kind: *genKind, Scale: *genScl, Vertices: *genV, Edges: *genE,
			Skew: *genS, Rows: *genV, Cols: *genV, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		if err := graph.WriteEdges(dev, "raw", genEdges); err != nil {
			fatal(err)
		}
	}

	edges, err := graph.ReadEdges(dev, "raw")
	if err != nil {
		fatal(err)
	}
	dev.ResetStats()
	src := graph.VertexID(0)
	if *source >= 0 {
		src = graph.VertexID(*source)
	} else {
		src = maxDegree(edges)
	}

	// Observability: the registry always collects (it also feeds the
	// post-run reports); a tracer and a live endpoint only on request.
	// -report needs the spans in memory, so it upgrades the tracer to a
	// collecting one (with -trace's file as the sink when both are set).
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *traceTo != "" || *repTo != "" {
		var sink io.Writer
		if *traceTo != "" {
			f, err := os.Create(*traceTo)
			if err != nil {
				fatal(err)
			}
			sink = f
		}
		if *repTo != "" {
			tracer = obs.NewCollectingTracer(sink)
		} else {
			tracer = obs.NewTracer(sink)
		}
	}
	if *maddr != "" {
		srv, err := obs.StartMetricsServer(*maddr, reg)
		if err != nil {
			fatal(err)
		}
		exitHooks = append(exitHooks, func() {
			if err := obs.DrainShutdown(srv, time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "graphz-run: metrics drain:", err)
			}
		})
		fmt.Printf("metrics: serving /metrics and /debug/pprof/ on http://%s\n", srv.Addr())
	}

	// SIGINT/SIGTERM cancel the run at the next partition boundary
	// instead of killing the process mid-write.
	ctx, stop := obs.SignalContext(context.Background())
	defer stop()

	inputName := *in
	if inputName == "" {
		inputName = fmt.Sprintf("gen:%s(seed=%d)", *genKind, *seed)
	}
	config := map[string]string{"input": inputName} // the run report's; runGraphZ adds its engine's
	var (
		iterations int
		values     map[graph.VertexID]float64
	)
	switch *engine {
	case "graphz":
		var g *dos.Graph // a -dos graph, imported; nil converts the input
		if *dosPfx != "" {
			if g, err = dos.Import(dev, *dosPfx, "g"); err != nil {
				fatal(fmt.Errorf("-dos %s: %w", *dosPfx, err))
			}
		}
		ck := core.CheckpointOptions{Dir: *ckDir, Every: *ckEvery, Keep: *ckKeep, Resume: *resume}
		if *resume {
			if st, serr := checkpoint.NewStore(*ckDir); serr == nil && st.HasCheckpoint() {
				if latest, lerr := st.Latest(); lerr == nil {
					fmt.Printf("checkpoint: resuming from iteration %d in %s\n", latest.Manifest.Iteration, *ckDir)
				}
			}
		}
		iterations, values, err = runGraphZ(ctx, g, dev, clock, reg, tracer, *algo, *budget, *iters, src, ck, config)
	case "graphchi":
		iterations, values, err = runGraphChi(dev, clock, reg, tracer, *algo, *budget, *iters, src)
	case "xstream":
		iterations, values, err = runXStream(dev, clock, reg, tracer, *algo, *budget, *iters, src)
	default:
		err = fmt.Errorf("unknown engine %q", *engine)
	}
	if err != nil {
		fatal(err)
	}

	rep := energy.Measure(clock, kind)
	st := dev.Stats()
	fmt.Printf("%s %s on %s (%s, %d B budget)\n", *engine, *algo, inputName, kind, *budget)
	fmt.Printf("  iterations:   %d\n", iterations)
	fmt.Printf("  modeled time: %v (compute %v, IO %v)\n", clock.Total(), clock.TotalCompute(), clock.TotalIO())
	fmt.Printf("  device:       reads %d ops / %d B, writes %d ops / %d B, seeks %d, page-cache hits %d\n",
		st.ReadOps, st.ReadBytes, st.WriteOps, st.WriteBytes, st.Seeks, st.CacheHits)
	fmt.Printf("  device time:  %v (modeled)\n", clock.TotalIO())
	fmt.Printf("  energy:       %s\n", rep)
	if rows := reg.Iters(); len(rows) > 0 {
		fmt.Println("  per-iteration:")
		for _, line := range strings.Split(strings.TrimRight(obs.FormatIterTable(rows), "\n"), "\n") {
			fmt.Println("    " + line)
		}
	}
	// The report is written before the trace teardown: a broken trace
	// sink must not lose the report (the collecting tracer keeps its
	// spans in memory regardless).
	if *repTo != "" {
		report := obs.BuildReport(obs.ReportInfo{
			Engine:      *engine,
			Algo:        *algo,
			Device:      kind.String(),
			BudgetBytes: *budget,
			Config:      config,
		}, reg, tracer, core.DeviceFileIO(dev))
		if err := report.WriteFile(*repTo); err != nil {
			fatal(err)
		}
		fmt.Printf("  report:       %s (inspect with graphz-report show %s)\n", *repTo, *repTo)
	}
	traceBroken := false
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			// Surface the damage but finish the summary: the run itself
			// succeeded, only the trace output is incomplete.
			fmt.Fprintf(os.Stderr, "graphz-run: trace output failed: %v\n", err)
			traceBroken = true
		} else if *traceTo != "" {
			fmt.Printf("  trace:        %d spans -> %s\n", tracer.Spans(), *traceTo)
		}
		if n := tracer.Dropped(); n > 0 && !traceBroken {
			fmt.Fprintf(os.Stderr, "graphz-run: trace output incomplete: %d spans dropped\n", n)
			traceBroken = true
		}
	}
	printTop(values, *top)
	if traceBroken {
		runExitHooks()
		os.Exit(1)
	}
}

// runGraphZ preprocesses to DOS (unless handed a graph -dos imported) and
// runs the algorithm, returning values keyed by original IDs. It adds to config
// what the run report says of this engine: whether blocks were scheduled
// selectively (as its program declares; the counts on the selective: line
// are the Result's, which a resumed run continues from its checkpoint) and
// the adjacency residency the budget decided.
func runGraphZ(ctx context.Context, g *dos.Graph, dev *storage.Device, clock *sim.Clock, reg *obs.Registry, tracer *obs.Tracer, algo string, budget int64, iters int, src graph.VertexID, ck core.CheckpointOptions, config map[string]string) (int, map[graph.VertexID]float64, error) {
	var err error
	if g == nil {
		if g, err = dos.Convert(dos.ConvertConfig{Dev: dev, Clock: clock, MemoryBudget: budget / 4}, "raw", "g"); err != nil {
			return 0, nil, err
		}
	}
	o2n, err := g.OldToNew()
	if err != nil {
		return 0, nil, err
	}
	n2o, err := g.NewToOld()
	if err != nil {
		return 0, nil, err
	}
	a, err := bench.ParseAlgo(algo)
	if err != nil {
		return 0, nil, err
	}
	opts := core.Options{
		Context: ctx, MemoryBudget: budget, Clock: clock, DynamicMessages: true, MaxIterations: 200,
		Obs: reg, Trace: tracer, Checkpoint: ck,
	}
	if ck.Dir != "" {
		// Bind checkpoints to the algorithm: resuming a "pr" checkpoint
		// under -algo bfs fails the manifest's name check instead of
		// silently mixing states.
		opts.Name = "graphz-" + algo
	}
	if int(src) >= len(o2n) {
		return 0, nil, fmt.Errorf("-source %d is not a vertex of the graph (%d vertices)", src, len(o2n))
	}
	res, vals, err := bench.ExecAlgo(a, core.DOSLayout(g), opts, bench.AlgoParams{Source: o2n[src], Iterations: iters})
	if err != nil {
		return 0, nil, err
	}
	if res.SemiExternal {
		fmt.Printf("sem: semi-external — one partition, vertex states resident, %d messages applied inline, zero spill\n",
			res.MessagesInline)
	} else {
		fmt.Printf("sem: partitioned — %d partitions, resident vertex states would exceed the %d B budget\n", res.Partitions, budget)
	}
	selective := res.BlocksScanned+res.BlocksSkipped > 0
	config["selective"] = fmt.Sprint(selective)
	config["adjacency"] = "streamed"
	verdict := "exceed"
	if res.ResidentAdjacency {
		config["adjacency"] = "resident"
		verdict = "fit in"
	}
	fmt.Printf("adjacency: %s — 4·E = %d B %s what %d partition(s) leave of the %d-byte budget\n",
		config["adjacency"], 4*g.NumEdges, verdict, res.Partitions, budget)
	if ck.Dir != "" {
		fmt.Printf("checkpoint: %d written (%d B, %v) -> %s\n",
			res.Checkpoints, res.CheckpointBytes, res.CheckpointTime, ck.Dir)
	}
	if selective {
		fmt.Printf("selective: %d blocks scanned, %d skipped\n",
			res.BlocksScanned, res.BlocksSkipped)
	}
	out := make(map[graph.VertexID]float64, len(vals))
	for newID, val := range vals {
		out[n2o[newID]] = val
	}
	return res.Iterations, out, nil
}

// runGraphChi shards and runs the algorithm.
func runGraphChi(dev *storage.Device, clock *sim.Clock, reg *obs.Registry, tracer *obs.Tracer, algo string, budget int64, iters int, src graph.VertexID) (int, map[graph.VertexID]float64, error) {
	a, err := bench.ParseAlgo(algo)
	if err != nil {
		return 0, nil, err
	}
	evalSize := 4
	if a == bench.BP {
		evalSize = 8
	}
	sh, err := graphchi.Shard(graphchi.ShardConfig{Dev: dev, Clock: clock, MemoryBudget: budget, EdgeValSize: evalSize}, "raw", "g")
	if err != nil {
		return 0, nil, err
	}
	opts := graphchi.Options{MemoryBudget: budget, Clock: clock, MaxIterations: 200, Obs: reg, Trace: tracer}
	res, vals, err := bench.ExecGraphChi(a, sh, opts, bench.AlgoParams{Source: src, Iterations: iters})
	if err != nil {
		return 0, nil, err
	}
	return res.Iterations, identityMap(vals), nil
}

// runXStream partitions and runs the algorithm.
func runXStream(dev *storage.Device, clock *sim.Clock, reg *obs.Registry, tracer *obs.Tracer, algo string, budget int64, iters int, src graph.VertexID) (int, map[graph.VertexID]float64, error) {
	a, err := bench.ParseAlgo(algo)
	if err != nil {
		return 0, nil, err
	}
	pt, err := xstream.Partition(xstream.PartitionConfig{Dev: dev, Clock: clock, MemoryBudget: budget}, "raw", "g")
	if err != nil {
		return 0, nil, err
	}
	opts := xstream.Options{MemoryBudget: budget, Clock: clock, MaxIterations: 200, Obs: reg, Trace: tracer}
	res, vals, err := bench.ExecXStream(a, pt, opts, bench.AlgoParams{Source: src, Iterations: iters})
	if err != nil {
		return 0, nil, err
	}
	return res.Iterations, identityMap(vals), nil
}

func identityMap(vals []float64) map[graph.VertexID]float64 {
	out := make(map[graph.VertexID]float64, len(vals))
	for i, v := range vals {
		out[graph.VertexID(i)] = v
	}
	return out
}

func maxDegree(edges []graph.Edge) graph.VertexID {
	deg := map[graph.VertexID]int{}
	for _, e := range edges {
		deg[e.Src]++
	}
	var best graph.VertexID
	bestDeg := -1
	for v, d := range deg {
		if d > bestDeg || (d == bestDeg && v < best) {
			best, bestDeg = v, d
		}
	}
	return best
}

func printTop(values map[graph.VertexID]float64, n int) {
	type kv struct {
		id  graph.VertexID
		val float64
	}
	list := make([]kv, 0, len(values))
	for id, v := range values {
		list = append(list, kv{id, v})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].val != list[j].val {
			return list[i].val > list[j].val
		}
		return list[i].id < list[j].id
	})
	if n > len(list) {
		n = len(list)
	}
	fmt.Printf("  top %d vertices by value:\n", n)
	for _, e := range list[:n] {
		fmt.Printf("    vertex %-10d %g\n", e.id, e.val)
	}
}

// graphzOnly names the flags only -engine graphz reads; any of them beside
// another engine is a usage error, not a setting silently dropped.
var graphzOnly = []string{"dos", "checkpoint-dir", "checkpoint-every", "checkpoint-keep", "resume"}

// usageError reports a command line that cannot mean anything. It is for
// flag checks, before anything has registered an exit hook.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "graphz-run:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphz-run:", err)
	runExitHooks()
	os.Exit(1)
}
