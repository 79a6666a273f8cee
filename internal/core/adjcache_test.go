package core

import (
	"fmt"
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

func TestAdjCacheCutsIO(t *testing.T) {
	edges := gen.RMAT(8, 2000, gen.NaturalRMAT, 102)

	run := func(stream bool) int64 {
		dev := storage.NewDevice(storage.SSD, storage.Options{})
		if err := graph.WriteEdges(dev, "raw", edges); err != nil {
			t.Fatal(err)
		}
		g, err := convertOn(dev)
		if err != nil {
			t.Fatal(err)
		}
		dev.ResetStats()
		eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
			Options{MemoryBudget: 64 << 20, DynamicMessages: true, StreamAdjacency: stream, MaxIterations: 6})
		if err != nil {
			t.Fatal(err)
		}
		if eng.AdjacencyCached() == stream {
			t.Fatalf("AdjacencyCached() = %v under a roomy budget with StreamAdjacency %v", !stream, stream)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return dev.Stats().ReadBytes
	}
	without := run(true)
	with := run(false)
	// Six iterations re-read the adjacency five extra times without the
	// cache.
	if with >= without/2 {
		t.Errorf("cache read %d bytes vs %d without; expected a large cut", with, without)
	}
}

// TestResidencyBoundary pins the adjacency's boundary as TestSemAutoDetection
// pins the states': it is plan()'s inequality and nothing else. At the
// smallest budget that holds the resident floor, P message buffers, the
// largest partition's states and 4 bytes per edge the run is resident; one
// byte below it streams; and the byte moves nothing else — the same
// partitions, the same state in every vertex. The fitting side is also the
// tightest timeline the planner ever promises (checkWithinBudget).
func TestResidencyBoundary(t *testing.T) {
	// Sparse, as in TestOneAdjacencyCache: at P = 2 the adjacency must fit
	// in less than the second half of the states, or the budget that holds
	// it plans one partition.
	edges := gen.ErdosRenyi(6000, 3000, 105)
	for _, codec := range []storage.Codec{nil, storage.CodecGroupVarint} {
		for _, parts := range []int64{1, 2} {
			for _, dm := range []bool{true, false} {
				layout := "v1"
				if codec != nil {
					layout = codec.Name()
				}
				t.Run(fmt.Sprintf("%s/parts=%d/dm=%v", layout, parts, dm), func(t *testing.T) {
					g := buildDOSCodec(t, edges, codec, 0)
					n := int64(g.NumVertices)
					need := pipelineOverheadBytes + g.IndexBytes() + g.BlockTableBytes() +
						parts*64 + (n+parts-1)/parts*8 + g.NumEdges*4
					run := func(budget int64) (Result, []minVal) {
						reg := obs.NewRegistry()
						res, vals := runMinLabel(t, g, Options{MemoryBudget: budget, DynamicMessages: dm,
							MsgBufferBytes: 64, MaxIterations: 4, Obs: reg})
						checkWithinBudget(t, reg.MemSamples())
						return res, vals
					}
					fit, fitVals := run(need)
					if !fit.ResidentAdjacency || int64(fit.Partitions) != parts {
						t.Errorf("budget == the fit (%d): resident %v in %d partitions, want resident in %d",
							need, fit.ResidentAdjacency, fit.Partitions, parts)
					}
					below, belowVals := run(need - 1)
					if below.ResidentAdjacency || int64(below.Partitions) != parts {
						t.Errorf("budget one below the fit: resident %v in %d partitions, want streamed in %d",
							below.ResidentAdjacency, below.Partitions, parts)
					}
					for v := range fitVals {
						if fitVals[v] != belowVals[v] {
							t.Fatalf("vertex %d = %+v resident, %+v streamed", v, fitVals[v], belowVals[v])
						}
					}
				})
			}
		}
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

// TestOneAdjacencyCache: the private cache (the budget's decision) and an
// external SharedAdjacency are the same cache, and neither changes what
// the engine computes. On a multi-partition graph whose adjacency fits
// the budget, both cached runs and the run pinned streamed agree on every
// value and counter; a cached run reads the edges file exactly once over the
// whole run (a groupvarint block shared by two partitions included);
// every partition visit but the one that filled the cache counts as a
// hit; the memory timeline's AdjCacheBytes sits at 4 bytes per entry from
// the first sample on when the engine's own budget pays for the cache (the
// fill is whole-file, so the plateau is reached in the first partition
// rather than one partition at a time — the samples, taken at iteration
// boundaries, cannot tell) and at zero when its owner does; and the block
// pool is back where it started after Cleanup.
func TestOneAdjacencyCache(t *testing.T) {
	// Sparse on purpose: the adjacency must fit beside half the vertex
	// states while the states themselves need two partitions.
	edges := gen.ErdosRenyi(6000, 3000, 104)
	for _, codec := range []storage.Codec{nil, storage.CodecGroupVarint} {
		name := "v1"
		if codec != nil {
			name = codec.Name()
		}
		t.Run(name, func(t *testing.T) {
			dev := storage.NewDevice(storage.SSD, storage.Options{})
			if err := graph.WriteEdges(dev, "raw", edges); err != nil {
				t.Fatal(err)
			}
			g, err := dos.Convert(dos.ConvertConfig{Dev: dev, Codec: codec}, "raw", "g")
			if err != nil {
				t.Fatal(err)
			}
			fileSize, err := dev.Size(g.EdgesFile())
			if err != nil {
				t.Fatal(err)
			}
			// Two partitions' worth of states, the adjacency, and a
			// vertex of slack for the odd split.
			budget := budgetForPartitions(g, 8, 2, 64) + g.NumEdges*4 + 8
			poolBefore := pooledOutstanding()

			type outcome struct {
				res      Result
				vals     []minVal
				edgeRead int64
				hits     int64
				mem      []obs.MemSample
			}
			run := func(mod func(*Options)) outcome {
				reg := obs.NewRegistry()
				opts := Options{MemoryBudget: budget, DynamicMessages: true, MsgBufferBytes: 64,
					MaxIterations: 4, Obs: reg}
				mod(&opts)
				dev.ResetStats()
				eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := !opts.StreamAdjacency; eng.AdjacencyCached() != want {
					t.Fatalf("AdjacencyCached() = %v, want %v", eng.AdjacencyCached(), want)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.ResidentAdjacency != eng.AdjacencyCached() {
					t.Fatalf("Result.ResidentAdjacency = %v, AdjacencyCached() = %v", res.ResidentAdjacency, eng.AdjacencyCached())
				}
				vals, err := eng.Values()
				if err != nil {
					t.Fatal(err)
				}
				eng.Cleanup()
				res.Stages, res.DecodeTime = obs.StageTimes{}, 0 // wall-clock, not comparable
				return outcome{res, vals, dev.FileStats()[g.EdgesFile()].ReadBytes,
					reg.CounterValue("graphz_adjcache_hits_total"), reg.MemSamples()}
			}
			uncached := run(func(o *Options) { o.StreamAdjacency = true })
			private := run(func(*Options) {})
			shared := run(func(o *Options) { o.SharedAdjacency = NewSharedAdjacency(DOSLayout(g)) })

			if uncached.res.Partitions < 2 {
				t.Fatalf("%d partitions; the test needs several", uncached.res.Partitions)
			}
			if uncached.hits != 0 || uncached.edgeRead < 2*fileSize {
				t.Errorf("uncached run: %d cache hits, %d edge bytes read of a %d-byte file over %d iterations",
					uncached.hits, uncached.edgeRead, fileSize, uncached.res.Iterations)
			}
			for _, c := range []struct {
				name     string
				got      outcome
				memBytes int64 // of the cache, on this engine's budget
			}{{"the budget decided", private, g.NumEdges * 4}, {"SharedAdjacency", shared, 0}} {
				// The codec byte counters follow the device reads, which is
				// the point of caching; everything else must match.
				res := c.got.res
				res.CodecBytesRaw, res.CodecBytesEncoded = uncached.res.CodecBytesRaw, uncached.res.CodecBytesEncoded
				res.ResidentAdjacency = false
				if res != uncached.res {
					t.Errorf("%s: result %+v, uncached %+v", c.name, res, uncached.res)
				}
				for v := range uncached.vals {
					if c.got.vals[v] != uncached.vals[v] {
						t.Fatalf("%s: vertex %d = %+v, uncached %+v", c.name, v, c.got.vals[v], uncached.vals[v])
					}
				}
				if c.got.edgeRead != fileSize {
					t.Errorf("%s: read %d bytes of the edges file, want exactly its size %d", c.name, c.got.edgeRead, fileSize)
				}
				if want := int64(res.Iterations*res.Partitions - 1); c.got.hits != want {
					t.Errorf("%s: graphz_adjcache_hits_total = %d, want %d (every partition visit but the fill)", c.name, c.got.hits, want)
				}
				if len(c.got.mem) != res.Iterations {
					t.Fatalf("%s: %d memory samples, want one per iteration (%d)", c.name, len(c.got.mem), res.Iterations)
				}
				for _, m := range c.got.mem {
					if m.AdjCacheBytes != c.memBytes {
						t.Errorf("%s: iteration %d AdjCacheBytes = %d, want %d", c.name, m.Iteration, m.AdjCacheBytes, c.memBytes)
					}
				}
			}
			if got := pooledOutstanding(); got != poolBefore {
				t.Errorf("%d pooled blocks outstanding after Cleanup, want %d", got, poolBefore)
			}
		})
	}
}
