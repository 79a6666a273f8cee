package core

import (
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

func TestAdjCacheSameResults(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 101)
	g := buildDOS(t, edges)
	_, plain := runMinLabel(t, g, Options{MemoryBudget: 64 << 20, DynamicMessages: true})
	_, cached := runMinLabel(t, g, Options{MemoryBudget: 64 << 20, DynamicMessages: true, CacheAdjacency: true})
	for i := range plain {
		if plain[i] != cached[i] {
			t.Fatalf("vertex %d differs with adjacency cache", i)
		}
	}
}

func TestAdjCacheCutsIO(t *testing.T) {
	edges := gen.RMAT(8, 2000, gen.NaturalRMAT, 102)

	run := func(cache bool) int64 {
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
			Options{MemoryBudget: 64 << 20, DynamicMessages: true, CacheAdjacency: cache, MaxIterations: 6})
		if err != nil {
			t.Fatal(err)
		}
		if cache && !eng.AdjacencyCached() {
			t.Fatal("cache should enable under a roomy budget")
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return dev.Stats().ReadBytes
	}
	without := run(false)
	with := run(true)
	// Six iterations re-read the adjacency five extra times without the
	// cache.
	if with >= without/2 {
		t.Errorf("cache read %d bytes vs %d without; expected a large cut", with, without)
	}
}

func TestAdjCacheAutoDisablesWhenTooBig(t *testing.T) {
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 103)
	g := buildDOS(t, edges)
	// Budget below adjacency size: the cache must auto-disable and the
	// run still work.
	budget := budgetForPartitions(g, 8, 2, 64)
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
		Options{MemoryBudget: budget, DynamicMessages: true, CacheAdjacency: true, MsgBufferBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if eng.AdjacencyCached() {
		t.Fatal("cache should not enable when adjacency exceeds the leftover budget")
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestOneAdjacencyCache: the private cache (CacheAdjacency) and an
// external SharedAdjacency are the same cache, and neither changes what
// the engine computes. On a multi-partition graph whose adjacency fits
// the budget, both cached runs and the uncached run agree on every value
// and counter; a cached run reads the edges file exactly once over the
// whole run (a groupvarint block shared by two partitions included);
// every partition visit but the one that filled the cache counts as a
// hit; the memory timeline's AdjCacheBytes sits at 4 bytes per entry from
// the first sample on (the fill is whole-file, so the plateau is reached
// in the first partition rather than one partition at a time — the
// samples, taken at iteration boundaries, cannot tell); and the block
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
				if want := opts.CacheAdjacency || opts.SharedAdjacency != nil; eng.AdjacencyCached() != want {
					t.Fatalf("AdjacencyCached() = %v, want %v", eng.AdjacencyCached(), want)
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
				res.Stages, res.DecodeTime = obs.StageTimes{}, 0 // wall-clock, not comparable
				return outcome{res, vals, dev.FileStats()[g.EdgesFile()].ReadBytes,
					reg.CounterValue("graphz_adjcache_hits_total"), reg.MemSamples()}
			}
			uncached := run(func(*Options) {})
			private := run(func(o *Options) { o.CacheAdjacency = true })
			shared := run(func(o *Options) { o.SharedAdjacency = NewSharedAdjacency(DOSLayout(g)) })

			if uncached.res.Partitions < 2 {
				t.Fatalf("%d partitions; the test needs several", uncached.res.Partitions)
			}
			if uncached.hits != 0 || uncached.edgeRead < 2*fileSize {
				t.Errorf("uncached run: %d cache hits, %d edge bytes read of a %d-byte file over %d iterations",
					uncached.hits, uncached.edgeRead, fileSize, uncached.res.Iterations)
			}
			for _, c := range []struct {
				name string
				got  outcome
			}{{"CacheAdjacency", private}, {"SharedAdjacency", shared}} {
				// The codec byte counters follow the device reads, which is
				// the point of caching; everything else must match.
				res := c.got.res
				res.CodecBytesRaw, res.CodecBytesEncoded = uncached.res.CodecBytesRaw, uncached.res.CodecBytesEncoded
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
					if m.AdjCacheBytes != g.NumEdges*4 {
						t.Errorf("%s: iteration %d AdjCacheBytes = %d, want %d", c.name, m.Iteration, m.AdjCacheBytes, g.NumEdges*4)
					}
				}
			}
			if got := pooledOutstanding(); got != poolBefore {
				t.Errorf("%d pooled blocks outstanding after Cleanup, want %d", got, poolBefore)
			}
		})
	}
}
