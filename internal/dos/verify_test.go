package dos

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

func TestVerifyConvertedGraphs(t *testing.T) {
	cases := map[string][]graph.Edge{
		"paper":  paperEdges,
		"rmat":   gen.RMAT(9, 3000, gen.NaturalRMAT, 131),
		"zipf":   gen.Zipf(400, 3000, 0.9, 132),
		"er":     gen.ErdosRenyi(100, 600, 133),
		"grid":   gen.Grid(20, 20),
		"single": {{Src: 3, Dst: 9}},
		"empty":  nil,
	}
	for name, edges := range cases {
		dev := storage.NewDevice(storage.NullDevice, storage.Options{})
		g := convertEdges(t, dev, edges, "g")
		if err := Verify(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, paperEdges, "g")

	// Corrupt a bucket's offset.
	g.Buckets[1].FirstOff++
	if err := Verify(g); err == nil || !strings.Contains(err.Error(), "arithmetic") {
		t.Errorf("corrupted bucket offset not caught: %v", err)
	}
	g.Buckets[1].FirstOff--

	// Corrupt an edge entry to an out-of-range destination.
	f, err := dev.Open(g.EdgesFile())
	if err != nil {
		t.Fatal(err)
	}
	var orig [4]byte
	f.ReadAt(orig[:], 0)
	f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0x7F}, 0)
	if err := Verify(g); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("corrupted edge entry not caught: %v", err)
	}
	f.WriteAt(orig[:], 0)

	// Truncate the edge file.
	if err := f.Truncate(f.Size() - 4); err != nil {
		t.Fatal(err)
	}
	if err := Verify(g); err == nil {
		t.Error("truncated edge file not caught")
	}
}

// TestExportImport: Import reads back the host files Export wrote, byte for
// byte, onto the device it is handed; a corrupt edges file fails Verify on
// the scratch device, so nothing reaches that device and its statistics
// stay zero.
func TestExportImport(t *testing.T) {
	g := convertEdges(t, storage.NewDevice(storage.NullDevice, storage.Options{}), gen.RMAT(8, 1500, gen.NaturalRMAT, 134), "g")
	host := filepath.Join(t.TempDir(), "web")
	if err := Export(g, host); err != nil {
		t.Fatal(err)
	}
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	got, err := Import(dev, host, "web.dos")
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range hostSuffixes {
		want, _ := storage.ReadAllFile(g.Device(), g.Prefix()+suffix)
		if b, err := storage.ReadAllFile(dev, got.Prefix()+suffix); err != nil || !bytes.Equal(b, want) {
			t.Errorf("%s: %d bytes imported (%v), %d exported", suffix, len(b), err, len(want))
		}
	}
	edges, err := os.ReadFile(host + suffixEdges)
	if err != nil {
		t.Fatal(err)
	}
	copy(edges, []byte{0xFF, 0xFF, 0xFF, 0x7F})
	if err := os.WriteFile(host+suffixEdges, edges, 0o644); err != nil {
		t.Fatal(err)
	}
	clean := storage.NewDevice(storage.NullDevice, storage.Options{})
	if _, err := Import(clean, host, "web.dos"); err == nil || !strings.Contains(err.Error(), "verify web.dos.edges@") || clean.Stats() != (storage.Stats{}) {
		t.Errorf("corrupt edges imported: %v, device %+v", err, clean.Stats())
	}
}

func TestVerifyDetectsMapCorruption(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, paperEdges, "g")
	f, err := dev.Open("g.new2old")
	if err != nil {
		t.Fatal(err)
	}
	// Point new ID 0 at a different old ID than old2new claims.
	f.WriteAt([]byte{9, 0, 0, 0}, 0) // old 9 is a real vertex, but maps to new 2
	if err := Verify(g); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Errorf("map disagreement not caught: %v", err)
	}
}

func TestVerifyDetectsBucketSumMismatch(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdges(t, dev, paperEdges, "g")
	g.NumEdges++
	if err := Verify(g); err == nil || !strings.Contains(err.Error(), "sum") {
		t.Errorf("edge-count mismatch not caught: %v", err)
	}
}

// TestQuickConvertThenVerify fuzzes the conversion pipeline against the
// integrity checker on arbitrary small graphs.
func TestQuickConvertThenVerify(t *testing.T) {
	check := func(seed uint64, n uint8, m uint16) bool {
		vertices := 2 + int(n)%120
		edges := gen.ErdosRenyi(vertices, 1+int(m)%500, seed)
		dev := storage.NewDevice(storage.NullDevice, storage.Options{})
		if err := graph.WriteEdges(dev, "raw", edges); err != nil {
			return false
		}
		g, err := Convert(ConvertConfig{Dev: dev, MemoryBudget: 1 + int64(m)}, "raw", "g")
		if err != nil {
			t.Logf("convert: %v", err)
			return false
		}
		if err := Verify(g); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		return true
	}
	if err := quickCheck20(check); err != nil {
		t.Error(err)
	}
}

// quickCheck20 runs testing/quick with a modest count (each case does a
// full external conversion).
func quickCheck20(f any) error {
	return quick.Check(f, &quick.Config{MaxCount: 20})
}
