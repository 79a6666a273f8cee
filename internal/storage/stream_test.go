package storage

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// patterned returns n bytes no two blocks of which look alike.
func patterned(n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(p)
	return p
}

// TestReaderNextMatchesReadFull: record by record, Next returns the bytes
// ReadFull returns and the device has counted the same operations when it
// returns — over files that end before, at and after a block boundary and
// record sizes that do not divide the block, so that records straddle
// two blocks and the last one may be cut short, which is
// io.ErrUnexpectedEOF from both and never a panic.
func TestReaderNextMatchesReadFull(t *testing.T) {
	for _, size := range []int{0, 1, DefaultBlockSize - 1, DefaultBlockSize, DefaultBlockSize + 1, 2*DefaultBlockSize + 7} {
		for _, recSz := range []int{8, 12, 20} {
			name := fmt.Sprintf("size=%d/rec=%d", size, recSz)
			devA, devB := NewDevice(SSD, Options{}), NewDevice(SSD, Options{})
			data := patterned(size)
			for _, dev := range []*Device{devA, devB} {
				if err := WriteAll(dev, "f", data); err != nil {
					t.Fatal(err)
				}
			}
			fa, _ := devA.Open("f")
			fb, _ := devB.Open("f")
			full, next := NewReader(fa), NewReader(fb)
			want := make([]byte, recSz)
			for i := 0; ; i++ {
				wantErr := full.ReadFull(want)
				got, err := next.Next(recSz)
				if err != wantErr {
					t.Fatalf("%s: record %d: Next error %v, ReadFull %v", name, i, err, wantErr)
				}
				if devA.Stats() != devB.Stats() {
					t.Fatalf("%s: record %d: after Next %v, after ReadFull %v", name, i, devB.Stats(), devA.Stats())
				}
				if err != nil {
					if wantTail := size%recSz != 0; (err == io.ErrUnexpectedEOF) != wantTail || (err == io.EOF) == wantTail {
						t.Errorf("%s: stream ended with %v", name, err)
					}
					if i != size/recSz {
						t.Errorf("%s: %d whole records, want %d", name, i, size/recSz)
					}
					break
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: record %d: Next returned %x, ReadFull %x", name, i, got, want)
				}
			}
		}
	}
}

// TestReaderReset: a Reader moved to another file reads it from the
// start, with nothing left of the one before.
func TestReaderReset(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	WriteAll(dev, "a", []byte{1, 2, 3, 4, 5})
	WriteAll(dev, "b", []byte{9, 8})
	fa, _ := dev.Open("a")
	fb, _ := dev.Open("b")
	r := NewReader(fa)
	if rec, err := r.Next(2); err != nil || !bytes.Equal(rec, []byte{1, 2}) {
		t.Fatalf("Next = %v, %v", rec, err)
	}
	r.Reset(fb, 0, fb.Size())
	if rec, err := r.Next(2); err != nil || !bytes.Equal(rec, []byte{9, 8}) {
		t.Fatalf("after Reset, Next = %v, %v", rec, err)
	}
	if _, err := r.Next(2); err != io.EOF {
		t.Errorf("past the second file: %v, want io.EOF", err)
	}
}

// TestWriterNextMatchesWrite: record by record, Next and Commit leave the
// device having counted the operations Write leaves it with, and in the
// end the same file — for records that do not divide the block, one
// longer than a block, and Write, Next and Reset mixed on one Writer.
func TestWriterNextMatchesWrite(t *testing.T) {
	for _, recSz := range []int{8, 12, 20, DefaultBlockSize + 100} {
		devA, devB := NewDevice(SSD, Options{}), NewDevice(SSD, Options{})
		fa, _ := devA.Create("f")
		fb, _ := devB.Create("f")
		plain, views := NewWriter(fa), NewWriter(fb)
		data := patterned(2*DefaultBlockSize + 5*recSz)
		for i := 0; i+recSz <= len(data); i += recSz {
			rec := data[i : i+recSz]
			if _, err := plain.Write(rec); err != nil {
				t.Fatal(err)
			}
			if i/recSz%7 == 3 {
				if _, err := views.Write(rec); err != nil {
					t.Fatal(err)
				}
			} else {
				copy(views.Next(recSz), rec)
				if err := views.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if devA.Stats() != devB.Stats() {
				t.Fatalf("rec=%d: at byte %d: after Commit %v, after Write %v", recSz, i, devB.Stats(), devA.Stats())
			}
			if plain.Offset() != views.Offset() {
				t.Fatalf("rec=%d: at byte %d: Offset %d, Write's %d", recSz, i, views.Offset(), plain.Offset())
			}
		}
		if err := plain.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := views.Flush(); err != nil {
			t.Fatal(err)
		}
		want, _ := ReadAllFile(devA, "f")
		got, _ := ReadAllFile(devB, "f")
		if devA.Stats() != devB.Stats() || !bytes.Equal(got, want) || len(want) != len(data)/recSz*recSz {
			t.Errorf("rec=%d: %d bytes and %v, Write wrote %d bytes and %v", recSz, len(got), devB.Stats(), len(want), devA.Stats())
		}

		// The same Writer, moved: an unflushed record does not follow it.
		g, _ := devB.Create("g")
		copy(views.Next(3), []byte{1, 2, 3})
		views.Commit()
		views.Reset(g, 0)
		copy(views.Next(2), []byte{7, 7})
		views.Commit()
		if err := views.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, _ := ReadAllFile(devB, "g"); !bytes.Equal(got, []byte{7, 7}) {
			t.Errorf("rec=%d: after Reset wrote %v", recSz, got)
		}
	}
}

// TestAppendConcurrent: appenders running together lose nothing, overlap
// nothing, and each learns where its bytes landed. Run under -race.
func TestAppendConcurrent(t *testing.T) {
	const writers, each, recSz = 8, 1000, 16
	dev := NewDevice(NullDevice, Options{})
	f, _ := dev.Create("log")
	offs := make([][]int64, writers)
	record := func(w, i int) []byte {
		return bytes.Repeat([]byte{byte(w), byte(i), byte(i >> 8), 0xA5}, recSz/4)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				off, err := f.Append(record(w, i))
				if err != nil {
					t.Error(err)
					return
				}
				offs[w] = append(offs[w], off)
			}
		}(w)
	}
	wg.Wait()
	if f.Size() != writers*each*recSz {
		t.Fatalf("file holds %d bytes, want %d", f.Size(), writers*each*recSz)
	}
	data, _ := ReadAllFile(dev, "log")
	seen := make(map[int64]bool)
	for w := range offs {
		for i, off := range offs[w] {
			if off%recSz != 0 || seen[off] {
				t.Fatalf("writer %d record %d landed at %d: torn or taken", w, i, off)
			}
			seen[off] = true
			if !bytes.Equal(data[off:off+recSz], record(w, i)) {
				t.Fatalf("writer %d record %d is not at the offset Append returned (%d)", w, i, off)
			}
		}
	}
}
