package graph

import (
	"io"
	"testing"

	"graphz/internal/storage"
)

func TestWriteReadEdges(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	edges := []Edge{{0, 1}, {2, 3}, {4, 0}}
	if err := WriteEdges(dev, "e", edges); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdges(dev, "e")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("got %d edges", len(got))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Errorf("edge %d: got %v, want %v", i, got[i], edges[i])
		}
	}
}

func TestReadEdgesTorn(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := storage.WriteAll(dev, "bad", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEdges(dev, "bad"); err == nil {
		t.Error("torn edge file should fail")
	}
	if _, err := ReadEdges(dev, "missing"); err == nil {
		t.Error("missing file should fail")
	}
}

func TestEdgeScanner(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	edges := []Edge{{1, 2}, {3, 4}}
	if err := WriteEdges(dev, "e", edges); err != nil {
		t.Fatal(err)
	}
	f, err := dev.Open("e")
	if err != nil {
		t.Fatal(err)
	}
	s := NewEdgeScanner(f)
	var got []Edge
	for s.Scan() {
		got = append(got, s.Edge())
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if len(got) != 2 || got[0] != edges[0] || got[1] != edges[1] {
		t.Errorf("scanned %v", got)
	}
}

// TestEdgeScannerMatchesReadFull: the scanner's block views decode the
// records a ReadFull per record reads, with the same device reads after
// every record, and a file that ends inside a record is
// io.ErrUnexpectedEOF after its whole records.
func TestEdgeScannerMatchesReadFull(t *testing.T) {
	const block = storage.DefaultBlockSize
	for _, size := range []int{0, 3, EdgeBytes, block - EdgeBytes, block, block + 3, block + EdgeBytes, 2*block + 5} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*131 + i>>9)
		}
		devA, devB := storage.NewDevice(storage.SSD, storage.Options{}), storage.NewDevice(storage.SSD, storage.Options{})
		for _, dev := range []*storage.Device{devA, devB} {
			if err := storage.WriteAll(dev, "e", data); err != nil {
				t.Fatal(err)
			}
			dev.ResetStats()
		}
		fa, _ := devA.Open("e")
		fb, _ := devB.Open("e")
		s, r := NewEdgeScanner(fa), storage.NewReader(fb)
		var rec [EdgeBytes]byte
		n := 0
		for s.Scan() {
			if err := r.ReadFull(rec[:]); err != nil || s.Edge() != GetEdge(rec[:]) {
				t.Fatalf("size %d: edge %d scanned %v, ReadFull %v (%v)", size, n, s.Edge(), GetEdge(rec[:]), err)
			}
			if devA.Stats() != devB.Stats() {
				t.Fatalf("size %d: edge %d: scanner %v, ReadFull %v", size, n, devA.Stats(), devB.Stats())
			}
			n++
		}
		wantErr := r.ReadFull(rec[:])
		if wantErr == io.EOF {
			wantErr = nil
		}
		if s.Err() != wantErr || n != size/EdgeBytes || devA.Stats() != devB.Stats() {
			t.Errorf("size %d: %d edges, Err %v, device %v; want %d, %v, %v",
				size, n, s.Err(), devA.Stats(), size/EdgeBytes, wantErr, devB.Stats())
		}
	}
}
