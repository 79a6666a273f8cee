package core

import (
	"slices"
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// DOS v2 beside the draws: the checkpoint binding to the adjacency order,
// and the emulation's setup pass. (Formats and block sizes against the
// references, and the codec counters, are the two oracles'.)

// buildDOSCodec converts edges to a v2 graph with the given codec on a
// fresh null device. blockEntries 0 keeps the convert default.
func buildDOSCodec(t testing.TB, edges []graph.Edge, codec storage.Codec, blockEntries int64) *dos.Graph {
	t.Helper()
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	must(t, graph.WriteEdges(dev, "raw", edges))
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev, Codec: codec, BlockEntries: blockEntries}, "raw", "g")
	must(t, err)
	return g
}

// counterFields extracts the deterministic (non-timing) Result counters.
func counterFields(r Result) [10]int64 {
	return [10]int64{
		int64(r.Iterations), int64(r.Partitions),
		r.MessagesSent, r.MessagesApplied, r.MessagesInline,
		r.MessagesBuffered, r.MessagesSpilled, r.UpdatesRun,
		r.BlocksScanned, r.BlocksSkipped,
	}
}

// TestEngineV2LayoutHash binds checkpoints to the adjacency order: v1 and
// v2 layouts of the same graph hash differently (their edge orders
// differ), while the two v2 codecs — whose adjacency is identical — share
// a hash.
func TestEngineV2LayoutHash(t *testing.T) {
	edges := gen.RMAT(7, 600, gen.NaturalRMAT, 34)
	opts := Options{MemoryBudget: 64 << 20, DynamicMessages: true}
	hash := func(g *dos.Graph) uint64 {
		eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, graph.U32PairCodec, graph.Uint32Codec{}, opts)
		must(t, err)
		return eng.computeLayoutHash()
	}
	h1 := hash(buildDOS(t, edges))
	hRaw := hash(buildDOSCodec(t, edges, storage.CodecRaw, 0))
	hGV := hash(buildDOSCodec(t, edges, storage.CodecGroupVarint, 0))
	if h1 == hRaw {
		t.Error("v1 and v2 layouts share a checkpoint hash")
	}
	if hRaw != hGV {
		t.Error("v2-raw and v2-groupvarint layouts hash differently")
	}
}

// TestInDegreesV2 keeps the GraphChi/X-Stream emulation setup pass
// working over block-encoded graphs.
func TestInDegreesV2(t *testing.T) {
	edges := gen.RMAT(7, 600, gen.NaturalRMAT, 35)
	in1, err := InDegrees(DOSLayout(buildDOS(t, edges)))
	must(t, err)
	for _, codec := range []storage.Codec{storage.CodecRaw, storage.CodecGroupVarint} {
		in2, err := InDegrees(DOSLayout(buildDOSCodec(t, edges, codec, 3)))
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if !slices.Equal(in1, in2) {
			t.Fatalf("%s: in-degrees %v, want %v", codec.Name(), in2, in1)
		}
	}
}
