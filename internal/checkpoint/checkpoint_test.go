package checkpoint

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testManifest(iter int) Manifest {
	return Manifest{
		Name:       "graphz",
		LayoutHash: 0xdeadbeefcafe,
		Iteration:  iter,
		Partitions: 2,
		VSize:      8,
		MSize:      4,
		Counters:   Counters{Sent: 10, Applied: 9, Inline: 5, Buffered: 4, Spilled: 3, Updates: 20},
	}
}

func testSections() []SectionData {
	return []SectionData{
		{Name: "vstate", Data: []byte("vertex-states-bytes")},
		{Name: "msgs.0", Data: []byte("m0")},
		{Name: "msgs.1", Data: nil}, // empty sections must round-trip
	}
}

func mustStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := mustStore(t)
	if s.HasCheckpoint() {
		t.Fatal("fresh store should have no checkpoint")
	}
	if _, err := s.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest on empty store = %v, want ErrNoCheckpoint", err)
	}
	n, err := s.Write(testManifest(3), testSections())
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("Write reported %d bytes", n)
	}
	ck, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	m := ck.Manifest
	if m.Iteration != 3 || m.Name != "graphz" || m.LayoutHash != 0xdeadbeefcafe ||
		m.Partitions != 2 || m.VSize != 8 || m.MSize != 4 || m.Version != FormatVersion {
		t.Fatalf("manifest round-trip = %+v", m)
	}
	if m.Counters != (Counters{Sent: 10, Applied: 9, Inline: 5, Buffered: 4, Spilled: 3, Updates: 20}) {
		t.Fatalf("counters round-trip = %+v", m.Counters)
	}
	for _, want := range testSections() {
		got, err := ck.Section(want.Name)
		if err != nil {
			t.Fatalf("Section(%q): %v", want.Name, err)
		}
		if string(got) != string(want.Data) {
			t.Fatalf("Section(%q) = %q, want %q", want.Name, got, want.Data)
		}
	}
	if _, err := ck.Section("nope"); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("unknown section = %v, want ErrBadManifest", err)
	}
}

func TestLatestPicksNewestAndPruneKeeps(t *testing.T) {
	s := mustStore(t)
	for _, iter := range []int{1, 2, 5, 9} {
		if _, err := s.Write(testManifest(iter), testSections()); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Manifest.Iteration != 9 {
		t.Fatalf("Latest iteration = %d, want 9", ck.Manifest.Iteration)
	}
	if err := s.Prune(2); err != nil {
		t.Fatal(err)
	}
	iters, err := s.Iterations()
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 2 || iters[0] != 5 || iters[1] != 9 {
		t.Fatalf("after Prune(2) iterations = %v, want [5 9]", iters)
	}
}

func TestTornTempDirIgnoredAndPruned(t *testing.T) {
	s := mustStore(t)
	// Simulate a crash mid-Write: a temp dir with sections but no
	// published checkpoint.
	torn := filepath.Join(s.Dir(), tmpPrefix+ckptName(7))
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(torn, "vstate"), []byte("partial"), 0o644)
	if s.HasCheckpoint() {
		t.Fatal("torn temp dir must not count as a checkpoint")
	}
	// A manifest-less published-looking dir must not count either.
	if err := os.MkdirAll(filepath.Join(s.Dir(), ckptName(8)), 0o755); err != nil {
		t.Fatal(err)
	}
	if s.HasCheckpoint() {
		t.Fatal("manifest-less dir must not count as a checkpoint")
	}
	if _, err := s.Write(testManifest(1), testSections()); err != nil {
		t.Fatal(err)
	}
	if err := s.Prune(1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("Prune left torn temp dir: %v", err)
	}
}

func manifestPath(s *Store, iter int) string {
	return filepath.Join(s.Dir(), ckptName(iter), manifestName)
}

func writeOne(t *testing.T) (*Store, string) {
	t.Helper()
	s := mustStore(t)
	if _, err := s.Write(testManifest(4), testSections()); err != nil {
		t.Fatal(err)
	}
	return s, manifestPath(s, 4)
}

func TestTruncatedManifest(t *testing.T) {
	s, path := writeOne(t)
	if err := os.WriteFile(path, []byte("GZC"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Latest(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated manifest = %v, want ErrTruncated", err)
	}
}

func TestBadMagic(t *testing.T) {
	s, path := writeOne(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	os.WriteFile(path, raw, 0o644)
	if _, err := s.Latest(); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("bad magic = %v, want ErrBadManifest", err)
	}
}

func TestManifestCRCMismatch(t *testing.T) {
	s, path := writeOne(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // flip a payload byte; stored CRC no longer matches
	os.WriteFile(path, raw, 0o644)
	if _, err := s.Latest(); !errors.Is(err, ErrCRCMismatch) {
		t.Fatalf("flipped payload = %v, want ErrCRCMismatch", err)
	}
	// Truncating the payload is also a CRC mismatch, not a panic.
	os.WriteFile(path, raw[:len(raw)-4], 0o644)
	if _, err := s.Latest(); !errors.Is(err, ErrCRCMismatch) {
		t.Fatalf("truncated payload = %v, want ErrCRCMismatch", err)
	}
}

func TestVersionFromTheFuture(t *testing.T) {
	s, path := writeOne(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(raw[len(manifestMagic):], FormatVersion+1)
	os.WriteFile(path, raw, 0o644)
	if _, err := s.Latest(); !errors.Is(err, ErrVersionTooNew) {
		t.Fatalf("future version = %v, want ErrVersionTooNew", err)
	}
}

func TestSectionCorruption(t *testing.T) {
	s, _ := writeOne(t)
	ck, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	secPath := filepath.Join(s.Dir(), ckptName(4), "vstate")

	// Flipped byte: CRC mismatch.
	raw, err := os.ReadFile(secPath)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), raw...)
	mut[0] ^= 0xff
	os.WriteFile(secPath, mut, 0o644)
	if _, err := ck.Section("vstate"); !errors.Is(err, ErrCRCMismatch) {
		t.Fatalf("corrupt section = %v, want ErrCRCMismatch", err)
	}

	// Short file: truncated.
	os.WriteFile(secPath, raw[:len(raw)-1], 0o644)
	if _, err := ck.Section("vstate"); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short section = %v, want ErrTruncated", err)
	}

	// Missing file: truncated.
	os.Remove(secPath)
	if _, err := ck.Section("vstate"); !errors.Is(err, ErrTruncated) {
		t.Fatalf("missing section = %v, want ErrTruncated", err)
	}
}

func TestWriteReplacesSameIteration(t *testing.T) {
	s := mustStore(t)
	if _, err := s.Write(testManifest(2), testSections()); err != nil {
		t.Fatal(err)
	}
	secs := testSections()
	secs[0].Data = []byte("second-write")
	if _, err := s.Write(testManifest(2), secs); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ck.Section("vstate")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second-write" {
		t.Fatalf("Section after rewrite = %q", got)
	}
	iters, _ := s.Iterations()
	if len(iters) != 1 {
		t.Fatalf("iterations = %v, want one entry", iters)
	}
}

func TestNewStoreErrors(t *testing.T) {
	if _, err := NewStore(""); err == nil {
		t.Error("NewStore(\"\") succeeded")
	}
	// A file where the directory should go: MkdirAll must fail typed.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore(f); err == nil {
		t.Error("NewStore over a regular file succeeded")
	}
}

func TestHasSection(t *testing.T) {
	s := mustStore(t)
	if _, err := s.Write(testManifest(1), testSections()); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if !ck.HasSection("vstate") || !ck.HasSection("msgs.1") {
		t.Error("declared sections not found")
	}
	if ck.HasSection("runs.0") {
		t.Error("undeclared section reported present")
	}
	if _, err := ck.Section("runs.0"); !errors.Is(err, ErrBadManifest) {
		t.Errorf("undeclared Section read = %v, want ErrBadManifest", err)
	}
}

func TestLoadMissingIteration(t *testing.T) {
	s := mustStore(t)
	if _, err := s.Write(testManifest(3), testSections()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(7); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("Load(7) = %v, want ErrNoCheckpoint", err)
	}
}

func TestSectionFileMissing(t *testing.T) {
	s := mustStore(t)
	if _, err := s.Write(testManifest(1), testSections()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(s.Dir(), "ckpt-0000000001", "vstate")); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Section("vstate"); !errors.Is(err, ErrTruncated) {
		t.Errorf("missing section file = %v, want ErrTruncated", err)
	}
}

// A manifest carries only what the engine writes: the retired "sem" key of
// one-partition checkpoints is gone from the encoding, and a manifest that
// still has it decodes like any other (the engine then finds the message
// sections such a checkpoint lacks missing: ErrBadManifest).
func TestSemFlagRoundTripAndCompat(t *testing.T) {
	s := mustStore(t)
	if _, err := s.Write(testManifest(1), testSections()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(s.Dir(), ckptName(1), manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"sem"`) {
		t.Errorf("manifest %s carries the retired sem key", raw)
	}
	if _, err := s.Latest(); err != nil {
		t.Fatal(err)
	}
}
