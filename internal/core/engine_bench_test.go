package core

import (
	"fmt"
	"io"
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
)

// benchGraph builds one multi-partition DOS graph shared by the engine
// benchmarks.
func benchGraph(b *testing.B) *dos.Graph {
	b.Helper()
	return buildDOS(b, gen.RMAT(12, 40000, gen.NaturalRMAT, 7))
}

// benchRun runs min-label b.N times over g in about four partitions around
// 4 KiB buffers, with opts's iteration cap, scheduling and observers.
func benchRun(b *testing.B, g *dos.Graph, opts Options) {
	b.Helper()
	opts.MemoryBudget, opts.DynamicMessages, opts.MsgBufferBytes = budgetForPartitions(g, 8, 4, 4096), true, 4096
	for i := 0; i < b.N; i++ {
		eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, graph.U32PairCodec, graph.Uint32Codec{}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		eng.Cleanup()
	}
}

// BenchmarkEngine is the baseline for the observability layer's disabled
// overhead: no registry, no tracer — the engine must take the no-op fast
// path everywhere.
func BenchmarkEngine(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	benchRun(b, g, Options{MaxIterations: 3})
}

// BenchmarkEngineObserved is the same run with a registry and a tracer
// writing to io.Discard — the cost of full instrumentation.
func BenchmarkEngineObserved(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	benchRun(b, g, Options{MaxIterations: 3, Obs: obs.NewRegistry(), Trace: obs.NewTracer(io.Discard)})
}

// BenchmarkEngineSelective runs min-label to convergence with selective
// block scheduling off and on. selective=true streams a sparse schedule,
// which no BENCHMARK.json workload does (grid-frontier-bfs is resident);
// CI gates only its allocations.
func BenchmarkEngineSelective(b *testing.B) {
	g := benchGraph(b)
	for _, sel := range []bool{false, true} {
		b.Run(fmt.Sprintf("selective=%v", sel), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			benchRun(b, g, Options{SelectiveScheduling: sel})
		})
	}
}

// BenchmarkSendAll runs witnessLabel to convergence with every state
// resident — each message goes through SendAll and is applied inline — by
// the bulk route's two forms: the program's ApplyAll delegate, which inlines
// Apply, and the engine's default loop over the bound Apply (the method
// hidden). What it predicts is stream-pr's run_vs_plain, so like stream-pr it
// streams the adjacency (pinned: this small graph would fit); what CI gates
// of it is the allocation count, which the route must not move.
func BenchmarkSendAll(b *testing.B) { benchSendRoutes(b, witnessLabel{each: -1}) }

// BenchmarkSendEach is BenchmarkSendAll with every vertex sending per edge
// through SendEach, by the ApplyEach delegate and the default loop: the
// route SSSP's served jobs take, so what it predicts is serve-mix's
// jobs_per_plain_run.
func BenchmarkSendEach(b *testing.B) { benchSendRoutes(b, witnessLabel{each: 1}) }

func benchSendRoutes(b *testing.B, own witnessLabel) {
	g := benchGraph(b)
	for _, route := range []struct {
		name string
		prog Program[witnessVal, uint32]
	}{
		{"delegate", own},
		{"default", noBulk[witnessVal, uint32]{own}},
	} {
		b.Run(route.name, func(b *testing.B) {
			opts := Options{MemoryBudget: 64 << 20, DynamicMessages: true, StreamAdjacency: true}
			b.ReportAllocs()
			b.SetBytes(4 * g.NumEdges)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := New[witnessVal, uint32](DOSLayout(g), route.prog, witnessCodec{}, graph.Uint32Codec{}, opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				eng.Cleanup()
			}
		})
	}
}

// BenchmarkEngineSpill measures the buffer/spill/drain path on a
// high-fan-in Zipf graph with a PageRank-style program that spills every
// iteration (min-label converges and starves the path).
func BenchmarkEngineSpill(b *testing.B) {
	g := buildDOS(b, gen.Zipf(16000, 160_000, 1.05, 7))
	opts := Options{
		MemoryBudget:    budgetForPartitions(g, 16, 4, 4096),
		DynamicMessages: true,
		MsgBufferBytes:  4096,
		MaxIterations:   3,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := New[prVal, float64](DOSLayout(g), prProg{}, prCodec{}, graph.Float64Codec{}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		eng.Cleanup()
	}
}
