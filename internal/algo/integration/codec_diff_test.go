package integration

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"graphz/internal/algo/graphzalgo"
	"graphz/internal/checkpoint"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// The differential property behind the DOS v2 codec layer: the block
// codec is invisible to the algorithm. A graph converted with CodecRaw
// and one converted with CodecGroupVarint share the vertex relabeling, the
// adjacency order, and the partitioning (their resident block tables are
// the same size), so every run over them must produce byte-identical
// vertex states AND identical message-routing counters — with and without
// selective scheduling, and across a checkpoint/resume cycle. The v1 format keeps a different adjacency
// order, so against it only the converged states are comparable.

// convertCodec prepares one graph under the given adjacency codec (nil
// keeps the v1 format) on its own in-memory device.
func convertCodec(t *testing.T, edges []graph.Edge, codec storage.Codec) *dos.Graph {
	t.Helper()
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev, Codec: codec}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// tightCodecOpts forces several partitions and tiny message buffers so
// cross-partition spills are exercised, charging the v2 block table the
// way the engine does.
func tightCodecOpts(g *dos.Graph, vsize int) core.Options {
	vertexBytes := int64(g.NumVertices) * int64(vsize)
	return core.Options{
		MemoryBudget:    6*storage.DefaultBlockSize + g.IndexBytes() + g.BlockTableBytes() + vertexBytes/3 + 4*256,
		DynamicMessages: true,
		MsgBufferBytes:  256,
	}
}

// codecCounters projects a Result onto its schedule-determined counters —
// the fields that must not depend on the adjacency codec.
type codecCounters struct {
	iterations, partitions                            int
	sent, applied, inline, buffered, spilled, updates int64
	scanned, skipped                                  int64
}

func countersOf(r core.Result) codecCounters {
	return codecCounters{
		iterations: r.Iterations, partitions: r.Partitions,
		sent: r.MessagesSent, applied: r.MessagesApplied, inline: r.MessagesInline,
		buffered: r.MessagesBuffered, spilled: r.MessagesSpilled, updates: r.UpdatesRun,
		scanned: r.BlocksScanned, skipped: r.BlocksSkipped,
	}
}

// bits32 and bitsF32 reduce vertex states to comparable bit patterns, so
// float equality means byte equality, not approximate equality.
func bits32(xs []uint32) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

func bitsF32(xs []float32) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(math.Float32bits(x))
	}
	return out
}

func sameBits(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d states, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: state[%d] = %#x, want %#x", label, i, got[i], want[i])
		}
	}
}

func TestCodecDifferential(t *testing.T) {
	algos := []struct {
		name  string
		exact bool // v1 states must match bit-for-bit (order-independent Apply)
		run   func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error)
	}{
		{"cc", true, func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error) {
			res, labels, err := graphzalgo.ConnectedComponents(g, opts)
			return res, bits32(labels), err
		}},
		{"sssp", true, func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error) {
			res, dists, err := graphzalgo.SSSP(g, opts, 0)
			return res, bitsF32(dists), err
		}},
		// PageRank applies float additions in adjacency order, so v1
		// (legacy order) agrees only approximately; raw vs groupvarint
		// still must agree exactly.
		{"pagerank", false, func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error) {
			res, ranks, err := graphzalgo.PageRank(g, opts, 20, 0.85)
			return res, bitsF32(ranks), err
		}},
	}
	configs := []struct {
		name string
		mod  func(o core.Options) core.Options
	}{
		{"sequential", func(o core.Options) core.Options { return o }},
		{"selective", func(o core.Options) core.Options { o.SelectiveScheduling = true; return o }},
	}
	graphs := []struct {
		name  string
		edges []graph.Edge
	}{
		{"zipf", symmetrize(gen.Zipf(3000, 16000, 0.9, 71))},
		{"rmat", symmetrize(gen.RMAT(11, 9000, gen.NaturalRMAT, 72))},
	}

	for _, gr := range graphs {
		g1 := convertCodec(t, gr.edges, nil)
		graw := convertCodec(t, gr.edges, storage.CodecRaw)
		ggv := convertCodec(t, gr.edges, storage.CodecGroupVarint)
		for _, a := range algos {
			for _, cfg := range configs {
				if a.name == "pagerank" && cfg.name == "selective" {
					// Not frontier-safe: core.New refuses the combination.
					// The row that stood here ran it on these symmetrized
					// graphs, where every vertex gets a message every round
					// and the schedule could not go wrong.
					continue
				}
				name := gr.name + "/" + a.name + "/" + cfg.name
				res1, st1, err := a.run(g1, cfg.mod(tightCodecOpts(g1, 8)))
				if err != nil {
					t.Fatalf("%s v1: %v", name, err)
				}
				resR, stR, err := a.run(graw, cfg.mod(tightCodecOpts(graw, 8)))
				if err != nil {
					t.Fatalf("%s raw: %v", name, err)
				}
				resG, stG, err := a.run(ggv, cfg.mod(tightCodecOpts(ggv, 8)))
				if err != nil {
					t.Fatalf("%s groupvarint: %v", name, err)
				}
				// The headline property: the two v2 codecs are
				// indistinguishable — states and counters.
				sameBits(t, name+" raw-vs-groupvarint", stG, stR)
				if countersOf(resG) != countersOf(resR) {
					t.Fatalf("%s: groupvarint counters %+v, raw %+v", name, countersOf(resG), countersOf(resR))
				}
				if resR.Partitions < 2 {
					t.Errorf("%s: %d partitions, want several (budget too loose to test spills)", name, resR.Partitions)
				}
				// v2 against v1: converged states agree (exactly for
				// order-independent programs).
				if a.exact {
					sameBits(t, name+" v2-vs-v1", stR, st1)
				} else {
					for i := range st1 {
						v1, v2 := float64(math.Float32frombits(uint32(st1[i]))), float64(math.Float32frombits(uint32(stR[i])))
						if math.Abs(v1-v2) > 1e-3*(1+math.Abs(v1)) {
							t.Fatalf("%s: state[%d] = %v, v1 has %v", name, i, v2, v1)
						}
					}
				}
				_ = res1
			}
		}
	}
}

// A checkpoint taken mid-run on one codec resumes to the same final
// state and cumulative counters as an uninterrupted run, and the two v2
// codecs stay indistinguishable across the crash/resume cycle.
func TestCodecCheckpointResumeDifferential(t *testing.T) {
	edges := symmetrize(gen.Zipf(2500, 14000, 0.9, 73))
	type outcome struct {
		res core.Result
		st  []uint64
	}
	results := map[string]outcome{}
	for _, c := range []struct {
		name  string
		codec storage.Codec
	}{{"raw", storage.CodecRaw}, {"groupvarint", storage.CodecGroupVarint}} {
		gRef := convertCodec(t, edges, c.codec)
		refRes, refLabels, err := graphzalgo.ConnectedComponents(gRef, tightCodecOpts(gRef, 8))
		if err != nil {
			t.Fatal(err)
		}
		if refRes.Iterations < 3 {
			t.Fatalf("CC converged in %d iterations; too few to test mid-run resume", refRes.Iterations)
		}

		// Crash: checkpoint every iteration, then throw away everything
		// after the halfway point — the on-host state of a run that died
		// mid-flight — and resume on a fresh engine over the same graph.
		dir := t.TempDir()
		g := convertCodec(t, edges, c.codec)
		opts := tightCodecOpts(g, 8)
		opts.Checkpoint = core.CheckpointOptions{Dir: dir, Every: 1, Keep: 1 << 20}
		if _, _, err := graphzalgo.ConnectedComponents(g, opts); err != nil {
			t.Fatal(err)
		}
		st, err := checkpoint.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		iters, err := st.Iterations()
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range iters {
			if it > refRes.Iterations/2 {
				os.RemoveAll(filepath.Join(dir, fmt.Sprintf("ckpt-%010d", it)))
			}
		}
		ropts := tightCodecOpts(g, 8)
		ropts.Checkpoint = core.CheckpointOptions{Dir: dir, Every: 1, Resume: true}
		res, labels, err := graphzalgo.ConnectedComponents(g, ropts)
		if err != nil {
			t.Fatalf("%s resume: %v", c.name, err)
		}
		sameBits(t, c.name+" resumed-vs-uninterrupted", bits32(labels), bits32(refLabels))
		if countersOf(res) != countersOf(refRes) {
			t.Fatalf("%s: resumed counters %+v, uninterrupted %+v", c.name, countersOf(res), countersOf(refRes))
		}
		results[c.name] = outcome{res: res, st: bits32(labels)}
	}
	gv, raw := results["groupvarint"], results["raw"]
	sameBits(t, "raw-vs-groupvarint after resume", gv.st, raw.st)
	if countersOf(gv.res) != countersOf(raw.res) {
		t.Fatalf("resume counters differ: groupvarint %+v, raw %+v", countersOf(gv.res), countersOf(raw.res))
	}
}

// The acceptance bar from the issue: on a power-law graph with >= 1M
// edges, the groupvarint edges file is at least 1.9x smaller than raw, and an
// end-to-end PageRank reads proportionally fewer device bytes — measured
// by the graphz_codec_bytes_{raw,encoded}_total counters — while the
// final states stay byte-identical.
func TestCodecCompressionAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("converts and ranks a 1M+ edge graph")
	}
	edges := gen.Zipf(200_000, 1_100_000, 0.9, 99)
	graw := convertCodec(t, edges, storage.CodecRaw)
	ggv := convertCodec(t, edges, storage.CodecGroupVarint)
	if graw.NumEdges < 1_000_000 {
		t.Fatalf("generator produced %d edges, want >= 1M", graw.NumEdges)
	}

	sizeOf := func(g *dos.Graph) int64 {
		n, err := g.Device().Size(g.EdgesFile())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// The ~2 control bits per entry spent on branch-free decode still
	// leave at least a 1.9x ratio.
	rawBytes, gvBytes := sizeOf(graw), sizeOf(ggv)
	fileRatio := float64(rawBytes) / float64(gvBytes)
	t.Logf("edges file: raw %d B, groupvarint %d B (%.2fx)", rawBytes, gvBytes, fileRatio)
	if fileRatio < 1.9 {
		t.Errorf("groupvarint edges file only %.2fx smaller than raw, want >= 1.9x", fileRatio)
	}

	run := func(g *dos.Graph) (core.Result, []uint64, storage.Stats) {
		g.Device().ResetStats()
		// Streamed, so that the edge bytes are read on every iteration.
		opts := core.Options{MemoryBudget: 64 << 20, DynamicMessages: true, StreamAdjacency: true, Obs: obs.NewRegistry()}
		res, ranks, err := graphzalgo.PageRank(g, opts, 3, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		return res, bitsF32(ranks), g.Device().Stats()
	}
	resR, stR, ioR := run(graw)
	resG, stG, ioG := run(ggv)

	sameBits(t, "pagerank raw-vs-groupvarint", stG, stR)
	if countersOf(resG) != countersOf(resR) {
		t.Fatalf("counters differ: groupvarint %+v, raw %+v", countersOf(resG), countersOf(resR))
	}
	if resG.CodecBytesRaw == 0 || resG.CodecBytesRaw != resR.CodecBytesRaw {
		t.Fatalf("decoded bytes: groupvarint %d, raw %d, want equal and nonzero", resG.CodecBytesRaw, resR.CodecBytesRaw)
	}
	// The device-byte saving matches the file-size saving: the run reads
	// the same index/state/message bytes on both codecs, fewer edge
	// bytes on groupvarint.
	readRatio := float64(resR.CodecBytesEncoded) / float64(resG.CodecBytesEncoded)
	t.Logf("edge bytes read: raw %d, groupvarint %d (%.2fx); device reads raw %d, groupvarint %d",
		resR.CodecBytesEncoded, resG.CodecBytesEncoded, readRatio, ioR.ReadBytes, ioG.ReadBytes)
	if readRatio < fileRatio*0.95 {
		t.Errorf("groupvarint run read only %.2fx fewer edge bytes; file is %.2fx smaller", readRatio, fileRatio)
	}
	if ioG.ReadBytes >= ioR.ReadBytes {
		t.Errorf("groupvarint run read %d device bytes, raw read %d", ioG.ReadBytes, ioR.ReadBytes)
	}
}

// TestGroupVarintDifferentialMatrix pins the delta codec against raw
// across the engine-mode cross: {selective scheduling on/off} ×
// {fitting, tight budget}. Every cell must produce
// byte-identical states and identical routing counters — the codec (and
// the batch Worker dispatch riding on its decode path) is invisible to
// every engine mode combination.
func TestGroupVarintDifferentialMatrix(t *testing.T) {
	edges := symmetrize(gen.Zipf(3000, 16000, 0.9, 83))
	graw := convertCodec(t, edges, storage.CodecRaw)
	ggv := convertCodec(t, edges, storage.CodecGroupVarint)
	for _, selective := range []bool{false, true} {
		for _, sem := range []bool{false, true} {
			name := fmt.Sprintf("selective=%v/sem=%v", selective, sem)
			optsFor := func(g *dos.Graph) core.Options {
				var o core.Options
				if sem {
					// A fitting budget pins all states resident: one
					// partition, every apply inline.
					o = core.Options{MemoryBudget: 64 << 20, DynamicMessages: true}
				} else {
					o = tightCodecOpts(g, 8)
				}
				o.SelectiveScheduling = selective
				return o
			}
			resR, labelsR, err := graphzalgo.ConnectedComponents(graw, optsFor(graw))
			if err != nil {
				t.Fatalf("%s raw: %v", name, err)
			}
			resG, labelsG, err := graphzalgo.ConnectedComponents(ggv, optsFor(ggv))
			if err != nil {
				t.Fatalf("%s groupvarint: %v", name, err)
			}
			sameBits(t, name+" raw-vs-groupvarint", bits32(labelsG), bits32(labelsR))
			if countersOf(resG) != countersOf(resR) {
				t.Fatalf("%s: groupvarint counters %+v, raw %+v", name, countersOf(resG), countersOf(resR))
			}
			if sem && !resG.SemiExternal {
				t.Fatalf("%s: run was not semi-external", name)
			}
			if !sem && resR.Partitions < 2 {
				t.Errorf("%s: %d partitions, want several (budget too loose to test spills)", name, resR.Partitions)
			}
		}
	}
}
