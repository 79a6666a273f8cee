package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphz/internal/algo/plain"
	"graphz/internal/checkpoint"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
)

// semOpts is a fitting budget: the planner cuts one partition, so the
// states stay pinned and, with dynamic messages, every send is inline.
func semOpts() Options {
	return Options{MemoryBudget: 64 << 20, DynamicMessages: true}
}

// partitionedOpts is the spilling multi-partition baseline every
// semi-external differential compares against: the same run under a
// budget that fits only a quarter of the states.
func partitionedOpts(g *dos.Graph) Options {
	return Options{
		MemoryBudget:    budgetForPartitions(g, 8, 4, 64),
		DynamicMessages: true,
		MsgBufferBytes:  64,
	}
}

// TestSemMatchesPartitioned: the fitting-budget run is IDENTICAL — states,
// counters, iteration count — to what the engine produced when
// semi-external was a mode (values recorded from that binary's
// auto-detected run of the same configuration): pinning only removes the
// per-iteration vertex-state round trip. (That its fixpoint matches a
// spilling multi-partition run's is FuzzEngineOracle's to hold.)
func TestSemMatchesPartitioned(t *testing.T) {
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 71)
	recorded := Result{Iterations: 3, Partitions: 1, SemiExternal: true, ResidentAdjacency: true, // 64 MiB keeps both
		MessagesSent: 7593, MessagesApplied: 7593, MessagesInline: 7593, UpdatesRun: 1248}
	const recordedStates = 0x76344cf5835dcb95 // FNV-64a of the encoded states
	variants := []struct {
		name          string
		mod           func(*Options)
		blocksScanned int64
	}{
		{"sequential", func(*Options) {}, 0},
		{"selective", func(o *Options) { o.SelectiveScheduling = true }, 3},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			so := semOpts()
			v.mod(&so)
			semRes, semVals := runMinLabel(t, buildDOS(t, edges), so)

			want := recorded
			want.BlocksScanned = v.blocksScanned
			if stripDurability(semRes) != want {
				t.Errorf("fitting-budget result %+v, recorded %+v", semRes, want)
			}
			h := fnv.New64a()
			h.Write(encodeStates[minVal](graph.U32PairCodec, semVals))
			if h.Sum64() != recordedStates {
				t.Errorf("fitting-budget states hash %#x, recorded %#x", h.Sum64(), uint64(recordedStates))
			}
		})
	}
}

// TestSemAutoDetection pins the boundary, which is plan()'s p = 1 test and
// nothing else: at the smallest budget that fits the resident floor, one
// message buffer and every state the run is semi-external; one byte below
// it partitions — with or without dynamic messages.
func TestSemAutoDetection(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 72)
	need := budgetForPartitions(buildDOS(t, edges), 8, 1, 64)

	for _, dm := range []bool{true, false} {
		run := func(budget int64) Result {
			t.Helper()
			res, _ := runMinLabel(t, buildDOS(t, edges), Options{
				MemoryBudget: budget, DynamicMessages: dm, MsgBufferBytes: 64,
			})
			return res
		}
		if res := run(need); !res.SemiExternal || res.Partitions != 1 {
			t.Errorf("dm=%v budget == one-partition floor (%d): %d partitions, want semi-external", dm, need, res.Partitions)
		}
		if res := run(need - 1); res.SemiExternal || res.Partitions != 2 {
			t.Errorf("dm=%v budget one below the floor: %d partitions (semi-external %v), want 2", dm, res.Partitions, res.SemiExternal)
		}
	}
}

// semCheckpoints runs the fitting-budget min-label job over edges with a
// checkpoint after every iteration and returns the checkpoint directory,
// trimmed to the checkpoints of iterations <= k.
func semCheckpoints(t *testing.T, edges []graph.Edge, k int) string {
	t.Helper()
	dir := t.TempDir()
	opts := semOpts()
	opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Keep: 1 << 20}
	runMinLabel(t, buildDOS(t, edges), opts)
	st, err := checkpoint.NewStore(dir)
	must(t, err)
	iters, err := st.Iterations()
	must(t, err)
	for _, it := range iters {
		if it > k {
			os.RemoveAll(filepath.Join(dir, ckptDirName(it)))
		}
	}
	return dir
}

// TestSemCheckpointMissingMessages: a one-partition checkpoint rewritten the
// way the engine laid it out when semi-external was a mode — a vstate section
// only, no message or tail sections — is damaged, and resume fails typed,
// even when its manifest carries that layout's retired "sem":true key.
func TestSemCheckpointMissingMessages(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 76)
	st, err := checkpoint.NewStore(semCheckpoints(t, edges, 1))
	must(t, err)
	ck, err := st.Latest()
	must(t, err)
	vstate, err := ck.Section("vstate")
	must(t, err)
	old, err := checkpoint.NewStore(t.TempDir())
	must(t, err)
	if _, err := old.Write(ck.Manifest, []checkpoint.SectionData{{Name: "vstate", Data: vstate}}); err != nil {
		t.Fatal(err)
	}
	// Splice the key into the manifest payload (magic, u16 version, u32
	// CRC, JSON) by hand: the writer no longer knows it.
	path := latestManifestPath(t, old.Dir())
	raw, err := os.ReadFile(path)
	must(t, err)
	const header = len("GZCKPT") + 6
	payload := append([]byte(`{"sem":true,`), raw[header+1:]...)
	binary.LittleEndian.PutUint32(raw[header-4:], crc32.ChecksumIEEE(payload))
	must(t, os.WriteFile(path, append(raw[:header], payload...), 0o644))
	opts := semOpts()
	opts.Checkpoint = CheckpointOptions{Dir: old.Dir(), Resume: true}
	if _, err := newMinLabelEngine(t, buildDOS(t, edges), opts).Run(); !errors.Is(err, checkpoint.ErrBadManifest) {
		t.Errorf("checkpoint without message sections = %v, want ErrBadManifest", err)
	}
}

// TestSemCheckpointCrossMode: a checkpoint only resumes under a budget
// that plans the partition count it was written with — the message
// sections are per partition — so crossing between a one-partition and a
// partitioned engine, either way, fails typed instead of corrupting.
func TestSemCheckpointCrossMode(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 77)

	// One-partition checkpoint, partitioned resume.
	g2 := buildDOS(t, edges)
	po := partitionedOpts(g2)
	po.Checkpoint = CheckpointOptions{Dir: semCheckpoints(t, edges, 1<<20), Resume: true}
	if _, err := newMinLabelEngine(t, g2, po).Run(); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Errorf("partitioned resume of one-partition checkpoint = %v, want ErrConfigMismatch", err)
	}

	// Partitioned checkpoint, one-partition resume.
	partDir := t.TempDir()
	po.Checkpoint = CheckpointOptions{Dir: partDir, Every: 1}
	runMinLabel(t, buildDOS(t, edges), po)

	so := semOpts()
	so.Checkpoint = CheckpointOptions{Dir: partDir, Resume: true}
	if _, err := newMinLabelEngine(t, buildDOS(t, edges), so).Run(); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Errorf("one-partition resume of partitioned checkpoint = %v, want ErrConfigMismatch", err)
	}
}

// semZipfGraph is the medium high-fan-in graph the semi-external
// crossover is measured on: the partitioned baseline buffers and spills
// heavily, the fitting budget pins 16000 states in a few hundred KiB.
const semZipfVertices = 16000

func semZipfEdges() []graph.Edge { return gen.Zipf(semZipfVertices, 160_000, 1.05, 7) }

func semZipfGraph(tb testing.TB) *dos.Graph {
	tb.Helper()
	return buildDOS(tb, semZipfEdges())
}

// semBenchOpts pairs the buffered multi-partition budget against the
// fitting one on the same graph and program — and the same streaming
// pipeline: the crossover is what pinning the states buys, so the fitting
// side is denied the adjacency its 64 MiB would also keep.
func semBenchOpts(g *dos.Graph, sem bool) Options {
	if sem {
		return Options{MemoryBudget: 64 << 20, DynamicMessages: true, StreamAdjacency: true, MaxIterations: 3}
	}
	return Options{MemoryBudget: budgetForPartitions(g, 16, 4, 4096),
		DynamicMessages: true, MsgBufferBytes: 4096, MaxIterations: 3}
}

func runSemBench(tb testing.TB, g *dos.Graph, sem bool) Result {
	tb.Helper()
	eng, err := New[prVal, float64](DOSLayout(g), prProg{}, prCodec{}, graph.Float64Codec{}, semBenchOpts(g, sem))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		tb.Fatal(err)
	}
	eng.Cleanup()
	return res
}

// BenchmarkEngineSEM is the crossover benchmark recorded in
// ci/bench-baseline.json: the same PageRank-style run on the Zipf graph,
// partitioned-and-buffered versus semi-external.
func BenchmarkEngineSEM(b *testing.B) {
	g := semZipfGraph(b)
	for _, mode := range []struct {
		name string
		sem  bool
	}{{"partitioned", false}, {"sem", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSemBench(b, g, mode.sem)
			}
		})
	}
}

// TestSEMSpeedup asserts what pinning buys against a yardstick the engine
// cannot move, the in-memory plain.PageRank over the same edges: on the
// medium Zipf graph the zero-spill resident-state run costs at most 10x it
// (4.6-5.9x alone, up to 7.3x beside other packages' tests; a ratio to the
// buffered run would shrink with every gain on the buffered path). Best of
// 25 interleaved runs per side; skipped under -short and race builds, and
// the timing half under coverage builds.
func TestSEMSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing test; race instrumentation distorts it")
	}
	// The differential guard first: the baseline spills, and the timed
	// config runs semi-external with nothing buffered or spilled.
	g := semZipfGraph(t)
	if r := runSemBench(t, g, false); r.MessagesSpilled == 0 {
		t.Fatal("partitioned baseline did not spill — speedup would be meaningless")
	}
	if r := runSemBench(t, g, true); !r.SemiExternal || r.MessagesSpilled != 0 || r.MessagesBuffered != 0 {
		t.Fatalf("sem run shape wrong: %+v", r)
	}
	// Coverage counters cost the engine's inline loop and, core being the
	// package under test, not the yardstick's: the bar is for plain builds.
	if testing.CoverMode() != "" {
		t.Skip("timing half; coverage instrumentation distorts it")
	}

	adj := plain.BuildAdjacency(semZipfVertices, semZipfEdges())
	// Interleaved, so a slow phase of the box lands on both sides.
	plainD, semD := time.Duration(1<<62), time.Duration(1<<62)
	for try := 0; try < 25; try++ {
		t0 := time.Now()
		plain.PageRank(adj, 3, 0.85)
		plainD = min(plainD, time.Since(t0))
		t0 = time.Now()
		runSemBench(t, g, true)
		semD = min(semD, time.Since(t0))
	}
	ratio := float64(semD) / float64(plainD)
	t.Logf("in memory %v, sem %v: %.2fx", plainD, semD, ratio)
	if ratio > 10 {
		t.Errorf("resident run costs %.2fx plain.PageRank, want <= 10x", ratio)
	}
}
