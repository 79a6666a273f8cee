package dos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphz/internal/graph"
	"graphz/internal/storage"
)

// Fuzz targets for the DOS v1+v2 on-device parsers. The contract under
// test is uniform: arbitrary file bytes may produce errors, never panics,
// runaway allocations, or silently wrong reads. Run the short CI budget
// with `make fuzz-short`; seed corpora live under testdata/fuzz (regenerate
// with GRAPHZ_WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus).

// seedFiles converts the paper graph (codec nil = v1) and returns the raw
// bytes of its meta, edges, new2old, and old2new files.
func seedFiles(tb testing.TB, codec storage.Codec) (meta, edges, n2o, o2n []byte) {
	tb.Helper()
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "g.raw", paperEdges); err != nil {
		tb.Fatal(err)
	}
	g, err := Convert(ConvertConfig{Dev: dev, Codec: codec, BlockEntries: 2}, "g.raw", "g")
	if err != nil {
		tb.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := storage.ReadAllFile(dev, name)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return read(g.MetaFile()), read(g.EdgesFile()),
		read(g.Prefix() + suffixNew2Old), read(g.Prefix() + suffixOld2New)
}

// FuzzMetaParse throws arbitrary bytes at Load and, when Load accepts
// them, at the in-memory accessors that trust the bucket table.
func FuzzMetaParse(f *testing.F) {
	m1, _, _, _ := seedFiles(f, nil)
	m2, _, _, _ := seedFiles(f, storage.CodecGroupVarint)
	f.Add(m1)
	f.Add(m2)
	f.Add(m1[:20])
	f.Add(m2[:40])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dev := storage.NewDevice(storage.NullDevice, storage.Options{})
		if err := storage.WriteAll(dev, "g.meta", data); err != nil {
			t.Fatal(err)
		}
		g, err := Load(dev, "g")
		if err != nil {
			return
		}
		// An accepted v2 meta names a registered codec with its whole
		// 32-bit word; anything else (the retired ID 1 of the checked-in
		// meta-v2-varint seed, a word above 255) is an error above.
		if g.Version() == 2 {
			if id := binary.LittleEndian.Uint32(data[32:]); id != uint32(g.Codec().ID()) {
				t.Fatalf("Load accepted codec word %#x as %s (id %d)", id, g.Codec().Name(), g.Codec().ID())
			}
		}
		// Accepted metas must support the accessors without panicking,
		// even when the bucket table is semantically nonsense.
		_ = g.Version()
		_ = g.Codec()
		_ = g.IndexBytes()
		_ = g.BlockTableBytes()
		_ = g.BlockLayout()
		if g.NumVertices > 0 {
			_, _ = g.Degree(0)
			_, _ = g.EdgeOffset(graph.VertexID(g.NumVertices - 1))
		}
	})
}

// FuzzEdgesDecode replaces a valid graph's edges file with arbitrary bytes
// and drives every decode path: the sequential entry stream, per-vertex
// adjacency reads, the integrity checker, and the block codecs directly.
func FuzzEdgesDecode(f *testing.F) {
	_, e1, _, _ := seedFiles(f, nil)
	_, e2, _, _ := seedFiles(f, storage.CodecRaw)
	_, e3, _, _ := seedFiles(f, storage.CodecGroupVarint)
	f.Add(e1)
	f.Add(e2)
	f.Add(e3)
	f.Add(e3[:len(e3)-1])
	f.Add([]byte{0x02, 0x0c, 0x01, 0x02}) // one block, lane 1 truncated
	f.Add([]byte{0x80, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, codec := range []storage.Codec{nil, storage.CodecRaw, storage.CodecGroupVarint} {
			dev := storage.NewDevice(storage.NullDevice, storage.Options{})
			if err := graph.WriteEdges(dev, "g.raw", paperEdges); err != nil {
				t.Fatal(err)
			}
			g, err := Convert(ConvertConfig{Dev: dev, Codec: codec, BlockEntries: 2}, "g.raw", "g")
			if err != nil {
				t.Fatal(err)
			}
			if err := storage.WriteAll(dev, g.EdgesFile(), data); err != nil {
				t.Fatal(err)
			}
			if r, err := g.Entries(0, g.NumEdges); err == nil {
				for {
					if _, err := r.Next(); err != nil {
						break
					}
				}
			}
			for v := 0; v < g.NumVertices; v++ {
				_, _ = g.Adjacency(graph.VertexID(v), nil)
			}
			_ = Verify(g)
		}
		_, _ = storage.CodecRaw.DecodeBlock(nil, data)
		_, _ = storage.CodecGroupVarint.DecodeBlock(nil, data)
	})
}

// FuzzVerify feeds a whole fuzzed file set through Load+Verify: whatever
// Load accepts, Verify must walk to a verdict without panicking.
func FuzzVerify(f *testing.F) {
	for _, codec := range []storage.Codec{nil, storage.CodecRaw, storage.CodecGroupVarint} {
		meta, edges, n2o, o2n := seedFiles(f, codec)
		f.Add(meta, edges, n2o, o2n)
		f.Add(meta, edges[:len(edges)-2], n2o, o2n)
		f.Add(meta, edges, o2n, n2o) // maps swapped
	}
	f.Fuzz(func(t *testing.T, meta, edges, n2o, o2n []byte) {
		dev := storage.NewDevice(storage.NullDevice, storage.Options{})
		for name, data := range map[string][]byte{
			"g.meta": meta, "g.edges": edges,
			"g" + suffixNew2Old: n2o, "g" + suffixOld2New: o2n,
		} {
			if err := storage.WriteAll(dev, name, data); err != nil {
				t.Fatal(err)
			}
		}
		g, err := Load(dev, "g")
		if err != nil {
			return
		}
		_ = Verify(g)
	})
}

// corpusEntry renders values in the go fuzz v1 corpus file format.
func corpusEntry(vals ...[]byte) []byte {
	var b bytes.Buffer
	b.WriteString("go test fuzz v1\n")
	for _, v := range vals {
		fmt.Fprintf(&b, "[]byte(%q)\n", v)
	}
	return b.Bytes()
}

// TestWriteFuzzCorpus regenerates the committed seed corpora under
// testdata/fuzz. It is a no-op unless GRAPHZ_WRITE_FUZZ_CORPUS is set.
// The three *-v2-varint seeds were written by the codec PR 22 retired and
// cannot be regenerated; they stay checked in as hostile inputs (see
// TestRetiredCodecSeedsFailTyped).
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("GRAPHZ_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set GRAPHZ_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	m1, e1, n1, o1 := seedFiles(t, nil)
	m2, e2, n2, o2 := seedFiles(t, storage.CodecRaw)
	m3, e3, n3, o3 := seedFiles(t, storage.CodecGroupVarint)
	write := func(target, name string, vals ...[]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), corpusEntry(vals...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("FuzzMetaParse", "meta-v1", m1)
	write("FuzzMetaParse", "meta-v2-raw", m2)
	write("FuzzMetaParse", "meta-v2-truncated", m3[:40])
	write("FuzzMetaParse", "meta-v2-groupvarint", m3)
	write("FuzzEdgesDecode", "edges-v1", e1)
	write("FuzzEdgesDecode", "edges-v2-raw", e2)
	write("FuzzEdgesDecode", "edges-v2-groupvarint", e3)
	write("FuzzEdgesDecode", "edges-continuation-tail", []byte{0x02, 0x02, 0x80})
	write("FuzzVerify", "set-v1", m1, e1, n1, o1)
	write("FuzzVerify", "set-v2-raw", m2, e2, n2, o2)
	write("FuzzVerify", "set-v2-groupvarint", m3, e3, n3, o3)
	write("FuzzVerify", "set-v2-truncated-edges", m3, e3[:len(e3)-2], n3, o3)
}

// readCorpus parses a go fuzz v1 corpus file back into its []byte values.
func readCorpus(t *testing.T, target, name string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var vals [][]byte
	for _, line := range lines[1:] {
		q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s/%s: %q: %v", target, name, line, err)
		}
		vals = append(vals, []byte(q))
	}
	return vals
}

// TestRetiredCodecSeedsFailTyped: the meta files the retired varint codec
// (ID 1) wrote are still in the fuzz corpora, and loading one is a typed
// error that says to reconvert — never a panic, never another codec.
func TestRetiredCodecSeedsFailTyped(t *testing.T) {
	for _, seed := range []struct{ target, name string }{
		{"FuzzMetaParse", "meta-v2-varint"},
		{"FuzzVerify", "set-v2-varint"},
	} {
		dev := storage.NewDevice(storage.NullDevice, storage.Options{})
		files := readCorpus(t, seed.target, seed.name)
		for i, name := range []string{"g.meta", "g.edges", "g" + suffixNew2Old, "g" + suffixOld2New}[:len(files)] {
			if err := storage.WriteAll(dev, name, files[i]); err != nil {
				t.Fatal(err)
			}
		}
		_, err := Load(dev, "g")
		if !errors.Is(err, storage.ErrUnknownCodec) || !strings.Contains(err.Error(), "retired") {
			t.Errorf("%s/%s: Load = %v, want storage.ErrUnknownCodec naming the retired codec", seed.target, seed.name, err)
		}
	}
}
