package integration

import (
	"math"
	"testing"

	"graphz/internal/algo/graphzalgo"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// The block codec is invisible to the algorithm: the two v2 codecs share the
// relabeling, adjacency order and plan, so their runs agree bit for bit; the
// oracle holds every format to the references, this adds the bytes saved.

// convertCodec prepares one graph under the given adjacency codec (nil
// keeps the v1 format) on its own in-memory device.
func convertCodec(t *testing.T, edges []graph.Edge, codec storage.Codec) *dos.Graph {
	t.Helper()
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	must(t, graph.WriteEdges(dev, "raw", edges))
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev, Codec: codec}, "raw", "g")
	must(t, err)
	return g
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
		must(t, err)
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

	run := func(g *dos.Graph) (core.Result, []float32, storage.Stats) {
		g.Device().ResetStats()
		// Streamed, so that the edge bytes are read on every iteration.
		opts := core.Options{MemoryBudget: 64 << 20, DynamicMessages: true, StreamAdjacency: true, Obs: obs.NewRegistry()}
		res, ranks, err := graphzalgo.PageRank(g, opts, 3, 0.85)
		must(t, err)
		return res, ranks, g.Device().Stats()
	}
	resR, stR, ioR := run(graw)
	resG, stG, ioG := run(ggv)

	for v := range stR {
		if math.Float32bits(stG[v]) != math.Float32bits(stR[v]) {
			t.Fatalf("rank[%d] = %v groupvarint, %v raw", v, stG[v], stR[v])
		}
	}
	if logical(resG) != logical(resR) {
		t.Fatalf("results differ: groupvarint %+v, raw %+v", resG, resR)
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
