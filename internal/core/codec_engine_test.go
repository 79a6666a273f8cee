package core

import (
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// Tests for the engine over DOS v2 block-encoded graphs: every scheduling
// path must produce byte-identical vertex states and identical message
// counters whichever codec stores the adjacency, and the codec byte
// accounting must reconcile with what the device actually served.

// buildDOSCodec converts edges to a v2 graph with the given codec on a
// fresh null device. blockEntries 0 keeps the convert default.
func buildDOSCodec(t *testing.T, edges []graph.Edge, codec storage.Codec, blockEntries int64) *dos.Graph {
	t.Helper()
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev, Codec: codec, BlockEntries: blockEntries}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
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

// TestEngineV2CodecCounters reconciles the graphz_codec_* counters: the
// groupvarint engine must report decoded bytes equal to 4 bytes per streamed
// entry — one full stream per iteration when pinned streamed, one fill when
// the same roomy budget is left to keep the adjacency — encoded bytes no
// larger, and a v1 run reports nothing.
func TestEngineV2CodecCounters(t *testing.T) {
	edges := gen.RMAT(8, 2000, gen.NaturalRMAT, 33)
	g := buildDOSCodec(t, edges, storage.CodecGroupVarint, 0)
	for _, stream := range []bool{true, false} {
		reg := obs.NewRegistry()
		res, _ := runMinLabel(t, g, Options{
			MemoryBudget: 64 << 20, DynamicMessages: true, StreamAdjacency: stream, Obs: reg,
		})
		if res.ResidentAdjacency == stream {
			t.Fatalf("StreamAdjacency %v: ResidentAdjacency = %v under a roomy budget", stream, res.ResidentAdjacency)
		}
		if res.CodecBytesRaw == 0 || res.CodecBytesEncoded == 0 {
			t.Fatalf("codec counters empty: raw %d, encoded %d", res.CodecBytesRaw, res.CodecBytesEncoded)
		}
		passes := int64(1) // the fill
		if stream {
			passes = int64(res.Iterations)
		}
		if wantRaw := passes * g.NumEdges * 4; res.CodecBytesRaw != wantRaw {
			t.Errorf("CodecBytesRaw = %d, want %d (%d passes of %d iterations over %d entries)",
				res.CodecBytesRaw, wantRaw, passes, res.Iterations, g.NumEdges)
		}
		if res.CodecBytesEncoded >= res.CodecBytesRaw {
			t.Errorf("groupvarint encoded bytes %d not smaller than raw %d", res.CodecBytesEncoded, res.CodecBytesRaw)
		}
		if got := reg.CounterValue("graphz_codec_bytes_raw_total"); got != res.CodecBytesRaw {
			t.Errorf("registry raw bytes %d != result %d", got, res.CodecBytesRaw)
		}
		if got := reg.CounterValue("graphz_codec_bytes_encoded_total"); got != res.CodecBytesEncoded {
			t.Errorf("registry encoded bytes %d != result %d", got, res.CodecBytesEncoded)
		}
		if reg.CounterValue("graphz_codec_decode_ns_total") <= 0 {
			t.Error("decode time counter did not advance")
		}
	}

	g1 := buildDOS(t, edges)
	res1, _ := runMinLabel(t, g1, Options{
		MemoryBudget: 64 << 20, DynamicMessages: true, StreamAdjacency: true, Obs: obs.NewRegistry(),
	})
	if res1.CodecBytesRaw != 0 || res1.CodecBytesEncoded != 0 || res1.DecodeTime != 0 {
		t.Errorf("v1 run reports codec activity: %+v", res1)
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
		eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{}, opts)
		if err != nil {
			t.Fatal(err)
		}
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
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []storage.Codec{storage.CodecRaw, storage.CodecGroupVarint} {
		in2, err := InDegrees(DOSLayout(buildDOSCodec(t, edges, codec, 3)))
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if len(in1) != len(in2) {
			t.Fatalf("%s: %d in-degrees, want %d", codec.Name(), len(in2), len(in1))
		}
		for v := range in1 {
			if in1[v] != in2[v] {
				t.Fatalf("%s: vertex %d in-degree %d, want %d", codec.Name(), v, in2[v], in1[v])
			}
		}
	}
}
