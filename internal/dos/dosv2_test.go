package dos

import (
	"encoding/binary"
	"errors"
	"io"
	"sort"
	"strings"
	"testing"

	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// convertEdgesV2 converts edges with the given block codec (and an
// optionally tiny block cut, to exercise multi-block graphs on small
// inputs).
func convertEdgesV2(t *testing.T, dev *storage.Device, edges []graph.Edge, prefix string, codec storage.Codec, blockEntries int64) *Graph {
	t.Helper()
	if err := graph.WriteEdges(dev, prefix+".raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := Convert(ConvertConfig{Dev: dev, Codec: codec, BlockEntries: blockEntries}, prefix+".raw", prefix)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConvertV2MatchesV1(t *testing.T) {
	for _, codec := range []storage.Codec{storage.CodecRaw, storage.CodecGroupVarint} {
		t.Run(codec.Name(), func(t *testing.T) {
			dev := storage.NewDevice(storage.NullDevice, storage.Options{})
			g1 := convertEdges(t, dev, paperEdges, "v1")
			g2 := convertEdgesV2(t, dev, paperEdges, "v2", codec, 2) // 2 entries/block: 4 blocks
			if g2.Version() != 2 || g1.Version() != 1 {
				t.Fatalf("versions %d/%d, want 1/2", g1.Version(), g2.Version())
			}
			if g2.NumVertices != g1.NumVertices || g2.NumEdges != g1.NumEdges || g2.MaxOldID != g1.MaxOldID {
				t.Fatalf("shape mismatch: %+v vs %+v", g2, g1)
			}
			if len(g2.Buckets) != len(g1.Buckets) {
				t.Fatalf("bucket tables differ: %v vs %v", g2.Buckets, g1.Buckets)
			}
			for i := range g1.Buckets {
				if g2.Buckets[i] != g1.Buckets[i] {
					t.Errorf("bucket %d: %+v vs %+v", i, g2.Buckets[i], g1.Buckets[i])
				}
			}
			// Per-vertex adjacency must agree as a multiset; v2 orders
			// each list by ascending new destination.
			for v := 0; v < g1.NumVertices; v++ {
				a1, err := g1.Adjacency(graph.VertexID(v), nil)
				if err != nil {
					t.Fatal(err)
				}
				a2, err := g2.Adjacency(graph.VertexID(v), nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sort.SliceIsSorted(a2, func(i, j int) bool { return a2[i] < a2[j] }) {
					t.Errorf("v2 adjacency of %d not ascending: %v", v, a2)
				}
				sort.Slice(a1, func(i, j int) bool { return a1[i] < a1[j] })
				if len(a1) != len(a2) {
					t.Fatalf("adjacency of %d: %v vs %v", v, a2, a1)
				}
				for i := range a1 {
					if a1[i] != a2[i] {
						t.Fatalf("adjacency of %d: %v vs %v", v, a2, a1)
					}
				}
			}
		})
	}
}

func TestV2LoadRoundTrip(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdgesV2(t, dev, paperEdges, "g", storage.CodecGroupVarint, 3)
	g2, err := Load(dev, "g")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Version() != 2 || g2.Codec().Name() != "groupvarint" {
		t.Fatalf("loaded version %d codec %s", g2.Version(), g2.Codec().Name())
	}
	if g2.blockEntries != 3 {
		t.Errorf("blockEntries = %d, want 3", g2.blockEntries)
	}
	if len(g2.blockOffs) != len(g.blockOffs) {
		t.Fatalf("offset tables differ: %v vs %v", g2.blockOffs, g.blockOffs)
	}
	for i := range g.blockOffs {
		if g2.blockOffs[i] != g.blockOffs[i] {
			t.Errorf("blockOffs[%d] = %d, want %d", i, g2.blockOffs[i], g.blockOffs[i])
		}
	}
	if g2.BlockTableBytes() != int64(len(g.blockOffs))*8 {
		t.Errorf("BlockTableBytes = %d", g2.BlockTableBytes())
	}
	// The final table entry is the edges file size.
	f, err := dev.Open(g.EdgesFile())
	if err != nil {
		t.Fatal(err)
	}
	if got := g.blockOffs[len(g.blockOffs)-1]; got != f.Size() {
		t.Errorf("last block offset %d, file size %d", got, f.Size())
	}
	bl := g2.BlockLayout()
	if bl.FixedEntries() {
		t.Error("v2 BlockLayout claims fixed entries")
	}
	if bl.NumBlocks() != int64(len(g.blockOffs))-1 {
		t.Errorf("NumBlocks = %d", bl.NumBlocks())
	}
}

// TestLoadRejectsUnknownCodecWord: the v2 meta stores the codec ID as a
// 32-bit word and Load compares all of it — the retired ID 1, an ID never
// assigned, and words whose low byte alone would name a registered codec
// (0x100 read as raw before PR 22) all fail with ErrUnknownCodec.
func TestLoadRejectsUnknownCodecWord(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdgesV2(t, dev, paperEdges, "g", storage.CodecGroupVarint, 2)
	for _, id := range []uint32{1, 3, 0x100, 0x102, 0xFFFFFFFF} {
		var word [4]byte
		binary.LittleEndian.PutUint32(word[:], id)
		writeAt(t, dev, g.MetaFile(), 32, word[:])
		_, err := Load(dev, "g")
		if !errors.Is(err, storage.ErrUnknownCodec) {
			t.Errorf("codec word %#x: Load = %v, want an error matching storage.ErrUnknownCodec", id, err)
		}
		if retired := err != nil && strings.Contains(err.Error(), "retired"); retired != (id == 1) {
			t.Errorf("codec word %#x: %v: says retired = %v", id, err, retired)
		}
	}
}

func TestV2Entries(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdgesV2(t, dev, paperEdges, "g", storage.CodecGroupVarint, 2)

	// Full scan equals the concatenation of per-vertex adjacencies.
	var want []graph.VertexID
	for v := 0; v < g.NumVertices; v++ {
		var err error
		want, err = g.Adjacency(graph.VertexID(v), want)
		if err != nil {
			t.Fatal(err)
		}
	}
	for start := int64(0); start <= g.NumEdges; start++ {
		for end := start; end <= g.NumEdges; end++ {
			r, err := g.Entries(start, end)
			if err != nil {
				t.Fatal(err)
			}
			for i := start; i < end; i++ {
				v, err := r.Next()
				if err != nil {
					t.Fatalf("Entries(%d,%d) at %d: %v", start, end, i, err)
				}
				if v != want[i] {
					t.Fatalf("entry %d = %d, want %d", i, v, want[i])
				}
			}
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("Entries(%d,%d): want io.EOF after the range, got %v", start, end, err)
			}
		}
	}
	if _, err := g.Entries(-1, 2); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := g.Entries(0, g.NumEdges+1); err == nil {
		t.Error("end past NumEdges accepted")
	}
	if _, err := g.Entries(3, 2); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestV2EmptyGraph(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdgesV2(t, dev, nil, "g", storage.CodecGroupVarint, 0)
	if g.NumVertices != 0 || g.NumEdges != 0 {
		t.Fatalf("empty graph: V=%d E=%d", g.NumVertices, g.NumEdges)
	}
	g2, err := Load(dev, "g")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Version() != 2 || g2.BlockLayout().NumBlocks() != 0 {
		t.Errorf("empty v2 graph: version %d, %d blocks", g2.Version(), g2.BlockLayout().NumBlocks())
	}
}

func TestV2GroupVarintSmallerOnPowerLaw(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	edges := gen.Zipf(5000, 60000, 0.9, 7)
	raw := convertEdgesV2(t, dev, edges, "raw", storage.CodecRaw, 0)
	gv := convertEdgesV2(t, dev, edges, "gv", storage.CodecGroupVarint, 0)
	rawBytes := raw.blockOffs[len(raw.blockOffs)-1]
	gvBytes := gv.blockOffs[len(gv.blockOffs)-1]
	if rawBytes != raw.NumEdges*EntryBytes {
		t.Fatalf("raw codec emitted %d bytes for %d entries", rawBytes, raw.NumEdges)
	}
	if gvBytes*2 > rawBytes {
		t.Errorf("groupvarint %d bytes vs raw %d: expected at least 2x on a power-law graph", gvBytes, rawBytes)
	}
}

// A conversion with a modeled clock charges compute, and the loaded
// graph exposes its backing device.
func TestConvertChargesClockAndExposesDevice(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	edges := gen.Zipf(200, 1500, 0.9, 9)
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock()
	g, err := Convert(ConvertConfig{Dev: dev, Clock: clock, Codec: storage.CodecGroupVarint}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	if g.Device() != dev {
		t.Fatal("Device() does not return the conversion device")
	}
	if clock.TotalCompute() <= 0 {
		t.Fatalf("conversion charged %v compute, want > 0", clock.TotalCompute())
	}
}

// The external-sort triad path (huge original-ID spaces) must produce
// the same graph as the in-memory degree-counting path.
func TestBuildTriadsSortedMatchesCounted(t *testing.T) {
	edges := gen.Zipf(300, 2500, 0.9, 17)

	devA := storage.NewDevice(storage.NullDevice, storage.Options{})
	gA := convertEdgesV2(t, devA, edges, "a", storage.CodecGroupVarint, 7)

	old := hostDegreeCapIDs
	hostDegreeCapIDs = 4 // force the sort-by-source fallback
	defer func() { hostDegreeCapIDs = old }()
	devB := storage.NewDevice(storage.NullDevice, storage.Options{})
	gB := convertEdgesV2(t, devB, edges, "b", storage.CodecGroupVarint, 7)

	if gA.NumVertices != gB.NumVertices || gA.NumEdges != gB.NumEdges {
		t.Fatalf("sorted path: %d vertices / %d edges, counted: %d / %d",
			gB.NumVertices, gB.NumEdges, gA.NumVertices, gA.NumEdges)
	}
	readAll := func(g *Graph) []graph.VertexID {
		r, err := g.Entries(0, g.NumEdges)
		if err != nil {
			t.Fatal(err)
		}
		var out []graph.VertexID
		for {
			d, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
		return out
	}
	a, b := readAll(gA), readAll(gB)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d: sorted path %d, counted %d", i, b[i], a[i])
		}
	}
	n2oA, err := gA.NewToOld()
	if err != nil {
		t.Fatal(err)
	}
	n2oB, err := gB.NewToOld()
	if err != nil {
		t.Fatal(err)
	}
	for i := range n2oA {
		if n2oA[i] != n2oB[i] {
			t.Fatalf("new2old[%d]: sorted path %d, counted %d", i, n2oB[i], n2oA[i])
		}
	}
}
