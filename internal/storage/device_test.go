package storage

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"graphz/internal/sim"
)

func TestCreateWriteRead(t *testing.T) {
	dev := NewDevice(SSD, Options{})
	f, err := dev.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello graph world")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	n, err := f.ReadAt(got, 0)
	if err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read %q, want %q", got, data)
	}
}

func TestReadAtEOF(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	f, _ := dev.Create("a")
	f.WriteAt([]byte{1, 2, 3}, 0)
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if err != nil || n != 3 {
		t.Errorf("ReadAt = %d, %v, want 3, nil", n, err)
	}
	n, err = f.ReadAt(buf, 99)
	if err != nil || n != 0 {
		t.Errorf("ReadAt past EOF = %d, %v, want 0, nil", n, err)
	}
}

func TestWriteAtGapZeroFills(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	f, _ := dev.Create("a")
	if _, err := f.WriteAt([]byte{9}, 4); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	f.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte{0, 0, 0, 0, 9}) {
		t.Errorf("got %v", buf)
	}
}

func TestOpenMissing(t *testing.T) {
	dev := NewDevice(SSD, Options{})
	if _, err := dev.Open("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Open missing = %v, want ErrNotFound", err)
	}
	if _, err := dev.Size("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size missing = %v, want ErrNotFound", err)
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	f, _ := dev.Create("a")
	f.WriteAt([]byte{1, 2, 3}, 0)
	f2, _ := dev.Create("a")
	if f2.Size() != 0 {
		t.Errorf("recreated file size = %d, want 0", f2.Size())
	}
	if dev.Used() != 0 {
		t.Errorf("Used = %d, want 0", dev.Used())
	}
}

func TestCapacity(t *testing.T) {
	dev := NewDevice(SSD, Options{Capacity: 10})
	f, _ := dev.Create("a")
	if _, err := f.WriteAt(make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 8), 8); !errors.Is(err, ErrNoSpace) {
		t.Errorf("over-capacity write = %v, want ErrNoSpace", err)
	}
	// Overwrites within the file do not consume capacity.
	if _, err := f.WriteAt(make([]byte, 8), 0); err != nil {
		t.Errorf("overwrite = %v, want nil", err)
	}
	// Removing frees capacity.
	dev.Remove("a")
	f2, _ := dev.Create("b")
	if _, err := f2.WriteAt(make([]byte, 10), 0); err != nil {
		t.Errorf("write after remove = %v", err)
	}
}

func TestTruncate(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	f, _ := dev.Create("a")
	f.WriteAt([]byte{1, 2, 3, 4}, 0)
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 2 || dev.Used() != 2 {
		t.Errorf("after shrink: size=%d used=%d", f.Size(), dev.Used())
	}
	if err := f.Truncate(6); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	f.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte{1, 2, 0, 0, 0, 0}) {
		t.Errorf("after grow: %v", buf)
	}
	if err := f.Truncate(-1); err == nil {
		t.Error("negative truncate should fail")
	}
}

func TestStatsCounting(t *testing.T) {
	dev := NewDevice(HDD, Options{})
	f, _ := dev.Create("a")
	f.WriteAt(make([]byte, 100), 0)
	f.ReadAt(make([]byte, 50), 0)
	f.ReadAt(make([]byte, 50), 50) // sequential, no seek
	f.ReadAt(make([]byte, 10), 0)  // seek back
	s := dev.Stats()
	if s.WriteOps != 1 || s.WriteBytes != 100 {
		t.Errorf("writes: %+v", s)
	}
	if s.ReadOps != 3 || s.ReadBytes != 110 {
		t.Errorf("reads: %+v", s)
	}
	// Seeks: first write (off 0 == lastWriteEnd 0: sequential, no
	// seek), first read at 0 is sequential (lastReadEnd starts 0),
	// second read sequential, third read seeks.
	if s.Seeks != 1 {
		t.Errorf("seeks = %d, want 1", s.Seeks)
	}
	dev.ResetStats()
	if dev.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero")
	}
}

func TestIOChargedToClock(t *testing.T) {
	clock := sim.NewClock()
	dev := NewDevice(HDD, Options{Clock: clock})
	f, _ := dev.Create("a")
	f.WriteAt(make([]byte, 1_300_000), 0) // 1.3MB at 130MB/s = 10ms
	got := clock.TotalIO()
	if got < 9*time.Millisecond || got > 11*time.Millisecond {
		t.Errorf("write IO time = %v, want ~10ms", got)
	}
	// A seek on HDD costs 8ms.
	before := clock.TotalIO()
	f.ReadAt(make([]byte, 1), 500) // seek (lastReadEnd=0)
	seekCost := clock.TotalIO() - before
	if seekCost < 8*time.Millisecond {
		t.Errorf("seek cost = %v, want >= 8ms", seekCost)
	}
}

func TestDeviceKindsAndProfiles(t *testing.T) {
	if HDD.String() != "HDD" || SSD.String() != "SSD" || NullDevice.String() != "null" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should stringify")
	}
	hdd, ssd := ProfileFor(HDD), ProfileFor(SSD)
	if hdd.SeekLatency <= ssd.SeekLatency {
		t.Error("HDD seeks should cost more than SSD")
	}
	if hdd.ReadBandwidth >= ssd.ReadBandwidth {
		t.Error("SSD bandwidth should exceed HDD")
	}
	if k, err := ParseKind("hdd"); err != nil || k != HDD {
		t.Errorf(`ParseKind("hdd") = %v, %v`, k, err)
	}
	if k, err := ParseKind("ssd"); err != nil || k != SSD {
		t.Errorf(`ParseKind("ssd") = %v, %v`, k, err)
	}
	for _, name := range []string{"sdd", "SSD", "null", ""} {
		if k, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) = %v, want an error: a typo must not pick a cost model", name, k)
		}
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{ReadOps: 1, WriteOps: 2, ReadBytes: 3, WriteBytes: 4, Seeks: 5, CacheHits: 6, RemoveErrors: 7}
	b := Stats{ReadOps: 10, WriteOps: 20, ReadBytes: 30, WriteBytes: 40, Seeks: 50, CacheHits: 60, RemoveErrors: 70}
	sum := a.Add(b)
	if sum != (Stats{11, 22, 33, 44, 55, 66, 77}) {
		t.Errorf("Add = %+v", sum)
	}
	if diff := sum.Sub(a); diff != b {
		t.Errorf("Sub = %+v", diff)
	}
}

func TestListAndExists(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	dev.Create("b")
	dev.Create("a")
	names := dev.List()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("List = %v", names)
	}
	if !dev.Exists("a") || dev.Exists("zzz") {
		t.Error("Exists mismatch")
	}
}

// TestReadBackProperty: whatever is written is read back identically, for
// arbitrary offsets and payloads.
func TestReadBackProperty(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	f, _ := dev.Create("p")
	check := func(data []byte, off uint16) bool {
		if _, err := f.WriteAt(data, int64(off)); err != nil {
			return false
		}
		got := make([]byte, len(data))
		n, err := f.ReadAt(got, int64(off))
		return err == nil && n == len(data) && bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStreamReaderWriter(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	f, _ := dev.Create("s")
	w := NewWriter(f)
	var want []byte
	for i := 0; i < 10000; i++ {
		b := byte(i * 7)
		w.Write([]byte{b, b + 1})
		want = append(want, b, b+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	r := NewReader(f)
	if err := r.ReadFull(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("stream round trip mismatch")
	}
	if err := r.ReadFull(make([]byte, 1)); err != io.EOF {
		t.Errorf("read past end = %v, want io.EOF", err)
	}
}

func TestStreamRangeReader(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	f, _ := dev.Create("s")
	f.WriteAt([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	r := NewRangeReader(f, 2, 6)
	if r.Remaining() != 4 {
		t.Errorf("Remaining = %d, want 4", r.Remaining())
	}
	got := make([]byte, 4)
	if err := r.ReadFull(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{2, 3, 4, 5}) {
		t.Errorf("range read = %v", got)
	}
	if err := r.ReadFull(got[:1]); err != io.EOF {
		t.Errorf("past range = %v, want EOF", err)
	}
}

func TestStreamUnexpectedEOF(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	f, _ := dev.Create("s")
	f.WriteAt([]byte{1, 2, 3}, 0)
	r := NewReader(f)
	err := r.ReadFull(make([]byte, 5))
	if err != io.ErrUnexpectedEOF {
		t.Errorf("short read = %v, want ErrUnexpectedEOF", err)
	}
}

// TestFullAtMatchesStreams: ReadFullAt and WriteFullAt move a range in the
// very device operations a Reader and a Writer over it issue — same bytes,
// same op count, same seeks — whether the range rewrites the middle of a
// file, overlaps its end or extends it, and a file that ends early is
// io.ErrUnexpectedEOF.
func TestFullAtMatchesStreams(t *testing.T) {
	payload := make([]byte, 2*DefaultBlockSize+1000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	const off = 300
	write := func(name string, direct bool) *Device {
		dev := NewDevice(SSD, Options{})
		f, _ := dev.Create(name)
		for _, at := range []int64{0, off, int64(len(payload)) - 5, int64(2 * len(payload))} { // fresh, rewrite, overlap, past a gap
			var err error
			if direct {
				err = WriteFullAt(f, payload, at)
			} else {
				w := NewWriterAt(f, at)
				if _, err = w.Write(payload); err == nil {
					err = w.Flush()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return dev
	}
	direct, streamed := write("f", true), write("f", false)
	if direct.Stats() != streamed.Stats() {
		t.Errorf("WriteFullAt: %v, a Writer: %v", direct.Stats(), streamed.Stats())
	}
	want, _ := ReadAllFile(streamed, "f")
	f, _ := direct.Open("f")
	direct.ResetStats()
	streamed.ResetStats()
	got := make([]byte, len(want)-off)
	if err := ReadFullAt(f, got, off); err != nil || !bytes.Equal(got, want[off:]) {
		t.Fatalf("ReadFullAt: %v, bytes equal %v", err, bytes.Equal(got, want[off:]))
	}
	fs, _ := streamed.Open("f")
	if err := NewRangeReader(fs, off, int64(len(want))).ReadFull(make([]byte, len(want)-off)); err != nil {
		t.Fatal(err)
	}
	if direct.Stats() != streamed.Stats() {
		t.Errorf("ReadFullAt: %v, a Reader: %v", direct.Stats(), streamed.Stats())
	}
	if err := ReadFullAt(f, make([]byte, 10), int64(len(want))-3); err != io.ErrUnexpectedEOF {
		t.Errorf("read past the end = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestWriterBlockedOps(t *testing.T) {
	// A writer flushing 1MB through 256KB blocks should issue 4-5 ops,
	// not thousands.
	dev := NewDevice(SSD, Options{})
	f, _ := dev.Create("s")
	w := NewWriter(f)
	one := make([]byte, 100)
	for i := 0; i < 10000; i++ { // 1MB total
		w.Write(one)
	}
	w.Close()
	if ops := dev.Stats().WriteOps; ops > 8 {
		t.Errorf("WriteOps = %d, want <= 8 (block-sized transfers)", ops)
	}
}

func TestWriteAllReadAllFile(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	data := []byte("round trip")
	if err := WriteAll(dev, "x", data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllFile(dev, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("got %q", got)
	}
	if err := WriteAll(dev, "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAllFile(dev, "empty")
	if err != nil || len(got) != 0 {
		t.Errorf("empty file read = %v, %v", got, err)
	}
}

func TestNewWriterAppends(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	f, _ := dev.Create("a")
	f.WriteAt([]byte{1, 2}, 0)
	w := NewWriter(f)
	if w.Offset() != 2 {
		t.Errorf("Offset = %d, want 2", w.Offset())
	}
	w.Write([]byte{3})
	w.Close()
	got, _ := ReadAllFile(dev, "a")
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("got %v", got)
	}
}

func TestAppend(t *testing.T) {
	dev := NewDevice(NullDevice, Options{})
	f, _ := dev.Create("a")
	off1, err := f.Append([]byte{1, 2})
	if err != nil || off1 != 0 {
		t.Fatalf("Append = %d, %v", off1, err)
	}
	off2, err := f.Append([]byte{3})
	if err != nil || off2 != 2 {
		t.Fatalf("Append = %d, %v", off2, err)
	}
}

func TestFileStats(t *testing.T) {
	dev := NewDevice(HDD, Options{})
	a, _ := dev.Create("a")
	b, _ := dev.Create("b")
	a.WriteAt(make([]byte, 100), 0)
	a.ReadAt(make([]byte, 40), 0)
	b.WriteAt(make([]byte, 20), 0)
	b.ReadAt(make([]byte, 5), 10) // seek (lastReadEnd 0)

	fs := dev.FileStats()
	if fs["a"].WriteBytes != 100 || fs["a"].ReadBytes != 40 || fs["a"].ReadOps != 1 {
		t.Errorf("file a stats: %+v", fs["a"])
	}
	if fs["b"].WriteBytes != 20 || fs["b"].ReadBytes != 5 || fs["b"].Seeks != 1 {
		t.Errorf("file b stats: %+v", fs["b"])
	}

	// Per-file stats sum to the device totals.
	var sum Stats
	for _, s := range fs {
		sum = sum.Add(s)
	}
	if sum != dev.Stats() {
		t.Errorf("per-file sum %+v != device %+v", sum, dev.Stats())
	}

	// Attribution survives Remove — engines delete message files at run
	// end, after the accounting they produced already happened.
	if err := dev.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if got := dev.FileStats()["b"].WriteBytes; got != 20 {
		t.Errorf("removed file stats lost: %d", got)
	}

	dev.ResetStats()
	if len(dev.FileStats()) != 0 {
		t.Errorf("ResetStats kept per-file stats: %+v", dev.FileStats())
	}
}

func TestFileStatsCacheHits(t *testing.T) {
	dev := NewDevice(HDD, Options{PageCacheBytes: 1 << 20})
	f, _ := dev.Create("a")
	f.WriteAt(make([]byte, 4096), 0)
	f.ReadAt(make([]byte, 4096), 0) // miss, fills cache
	f.ReadAt(make([]byte, 4096), 0) // hit
	fs := dev.FileStats()["a"]
	if fs.CacheHits == 0 {
		t.Errorf("no cache hits attributed: %+v", fs)
	}
	if fs.CacheHits != dev.Stats().CacheHits {
		t.Errorf("per-file hits %d != device %d", fs.CacheHits, dev.Stats().CacheHits)
	}
}
