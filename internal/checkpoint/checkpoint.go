// Package checkpoint persists iteration-boundary snapshots of a GraphZ
// engine run so a crashed run can resume from iteration k+1 instead of
// iteration 0 (docs/DURABILITY.md).
//
// A checkpoint is a directory ckpt-<iteration> holding one file per
// section (vertex states, one spilled-message stream per partition) plus
// a MANIFEST that names every section with its size and CRC32 and binds
// the snapshot to the graph's layout hash, the engine configuration, and
// the format version. Checkpoints are written to the HOST filesystem —
// the simulated storage.Device models the data device whose contents a
// modeled crash may tear, while the checkpoint directory plays the role
// of the separate durable volume a production deployment would use.
//
// Atomicity protocol: sections and manifest are written into a hidden
// .tmp- directory, fsynced file by file, the directory fsynced, and the
// directory then renamed to its final name (followed by an fsync of the
// parent). A crash mid-write leaves only a .tmp- directory, which
// readers ignore and the next Write/Prune clears — a torn checkpoint is
// indistinguishable from no checkpoint, never from a valid one.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// FormatVersion is the newest manifest format this build writes and the
// newest it will read; manifests from a later version fail with
// ErrVersionTooNew rather than being misparsed.
const FormatVersion = 1

// manifestMagic leads every manifest file.
const manifestMagic = "GZCKPT"

// manifestName is the per-checkpoint manifest file; its presence marks
// the checkpoint complete.
const manifestName = "MANIFEST"

// tmpPrefix marks in-progress checkpoint directories.
const tmpPrefix = ".tmp-"

// Typed failure modes. Resume surfaces these; none of them may panic.
var (
	// ErrNoCheckpoint: the directory holds no complete checkpoint.
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")
	// ErrTruncated: a manifest or section is shorter than declared.
	ErrTruncated = errors.New("checkpoint: truncated")
	// ErrBadManifest: the manifest is not a checkpoint manifest at all
	// (wrong magic, undecodable payload, unknown section).
	ErrBadManifest = errors.New("checkpoint: bad manifest")
	// ErrCRCMismatch: stored CRC32 does not match the bytes on disk.
	ErrCRCMismatch = errors.New("checkpoint: CRC mismatch")
	// ErrVersionTooNew: written by a future format version.
	ErrVersionTooNew = errors.New("checkpoint: version too new")
	// ErrLayoutMismatch: the checkpoint was taken against a different
	// graph layout (different DOS conversion, vertex/edge counts, ...).
	ErrLayoutMismatch = errors.New("checkpoint: graph layout mismatch")
	// ErrConfigMismatch: the engine configuration (name, partition
	// count, codec sizes) differs from the checkpointed run's.
	ErrConfigMismatch = errors.New("checkpoint: engine configuration mismatch")
)

// Counters snapshots the engine's cumulative message/update counters so
// a resumed run's final Result matches the uninterrupted run's exactly.
type Counters struct {
	Sent     int64 `json:"sent"`
	Applied  int64 `json:"applied"`
	Inline   int64 `json:"inline"`
	Buffered int64 `json:"buffered"`
	Spilled  int64 `json:"spilled"`
	Updates  int64 `json:"updates"`
	// Selective block-scheduling totals; omitted (and zero on decode)
	// for checkpoints from runs without it, keeping old manifests
	// byte-identical.
	BlocksScanned int64 `json:"blocks_scanned,omitempty"`
	BlocksSkipped int64 `json:"blocks_skipped,omitempty"`
}

// Section describes one data file of a checkpoint.
type Section struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"`
}

// Manifest binds a checkpoint's sections to the run that produced it.
type Manifest struct {
	Version    int       `json:"version"`
	Name       string    `json:"name"` // engine Options.Name
	LayoutHash uint64    `json:"layout_hash"`
	Iteration  int       `json:"iteration"` // iterations completed (resume continues at this count)
	Converged  bool      `json:"converged"` // the run finished; resume just restores
	Partitions int       `json:"partitions"`
	VSize      int       `json:"vsize"`
	MSize      int       `json:"msize"`
	Counters   Counters  `json:"counters"`
	Sections   []Section `json:"sections"`
}

// SectionData is one section to be written.
type SectionData struct {
	Name string
	Data []byte
}

// Store manages the checkpoints under one host directory.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %q: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func ckptName(iter int) string { return fmt.Sprintf("ckpt-%010d", iter) }

// Write atomically persists one checkpoint, replacing any existing
// checkpoint for the same iteration. It returns the total bytes written
// (sections + manifest).
func (s *Store) Write(m Manifest, secs []SectionData) (int64, error) {
	m.Version = FormatVersion
	m.Sections = m.Sections[:0]
	tmp := filepath.Join(s.dir, tmpPrefix+ckptName(m.Iteration))
	if err := os.RemoveAll(tmp); err != nil {
		return 0, fmt.Errorf("checkpoint: clearing stale temp: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 0, fmt.Errorf("checkpoint: creating temp dir: %w", err)
	}
	var total int64
	for _, sec := range secs {
		if err := writeFileSync(filepath.Join(tmp, sec.Name), sec.Data); err != nil {
			return 0, err
		}
		m.Sections = append(m.Sections, Section{
			Name:  sec.Name,
			Size:  int64(len(sec.Data)),
			CRC32: crc32.ChecksumIEEE(sec.Data),
		})
		total += int64(len(sec.Data))
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	buf := make([]byte, len(manifestMagic)+6+len(payload))
	n := copy(buf, manifestMagic)
	binary.LittleEndian.PutUint16(buf[n:], FormatVersion)
	binary.LittleEndian.PutUint32(buf[n+2:], crc32.ChecksumIEEE(payload))
	copy(buf[n+6:], payload)
	if err := writeFileSync(filepath.Join(tmp, manifestName), buf); err != nil {
		return 0, err
	}
	total += int64(len(buf))
	if err := syncDir(tmp); err != nil {
		return 0, err
	}
	final := filepath.Join(s.dir, ckptName(m.Iteration))
	if err := os.RemoveAll(final); err != nil {
		return 0, fmt.Errorf("checkpoint: clearing old checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, fmt.Errorf("checkpoint: publishing: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return 0, err
	}
	return total, nil
}

// Iterations lists the iterations of the complete checkpoints, ascending.
// Temp directories and stray files are ignored.
func (s *Store) Iterations() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading %q: %w", s.dir, err)
	}
	var iters []int
	for _, ent := range ents {
		name := ent.Name()
		if !ent.IsDir() || !strings.HasPrefix(name, "ckpt-") {
			continue
		}
		iter, err := strconv.Atoi(strings.TrimPrefix(name, "ckpt-"))
		if err != nil {
			continue
		}
		// Only a published manifest marks a checkpoint complete.
		if _, err := os.Stat(filepath.Join(s.dir, name, manifestName)); err != nil {
			continue
		}
		iters = append(iters, iter)
	}
	sort.Ints(iters)
	return iters, nil
}

// HasCheckpoint reports whether at least one complete checkpoint exists.
func (s *Store) HasCheckpoint() bool {
	iters, err := s.Iterations()
	return err == nil && len(iters) > 0
}

// Latest loads the newest complete checkpoint. A corrupt manifest is an
// error (one of the typed errors above), NOT a silent fallback to an
// older checkpoint: a manifest that fails validation means the store is
// damaged, and restarting from stale state silently would be worse.
func (s *Store) Latest() (*Checkpoint, error) {
	iters, err := s.Iterations()
	if err != nil {
		return nil, err
	}
	if len(iters) == 0 {
		return nil, fmt.Errorf("%w in %q", ErrNoCheckpoint, s.dir)
	}
	return s.Load(iters[len(iters)-1])
}

// Load opens the checkpoint for one iteration and validates its manifest
// envelope (magic, version, CRC). Section bytes are validated lazily by
// Checkpoint.Section.
func (s *Store) Load(iter int) (*Checkpoint, error) {
	dir := filepath.Join(s.dir, ckptName(iter))
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: iteration %d in %q", ErrNoCheckpoint, iter, s.dir)
		}
		return nil, fmt.Errorf("checkpoint: reading manifest: %w", err)
	}
	m, err := parseManifest(raw)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{dir: dir, Manifest: m}, nil
}

// Prune removes all but the newest keep complete checkpoints, plus any
// leftover temp directories. keep < 1 keeps one.
func (s *Store) Prune(keep int) error {
	if keep < 1 {
		keep = 1
	}
	iters, err := s.Iterations()
	if err != nil {
		return err
	}
	for _, iter := range iters[:max(0, len(iters)-keep)] {
		if err := os.RemoveAll(filepath.Join(s.dir, ckptName(iter))); err != nil {
			return fmt.Errorf("checkpoint: pruning iteration %d: %w", iter, err)
		}
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), tmpPrefix) {
			os.RemoveAll(filepath.Join(s.dir, ent.Name()))
		}
	}
	return nil
}

// parseManifest validates the binary envelope and decodes the payload.
func parseManifest(raw []byte) (Manifest, error) {
	var m Manifest
	header := len(manifestMagic) + 6
	if len(raw) < header {
		return m, fmt.Errorf("%w: manifest is %d bytes, header needs %d", ErrTruncated, len(raw), header)
	}
	if string(raw[:len(manifestMagic)]) != manifestMagic {
		return m, fmt.Errorf("%w: bad magic %q", ErrBadManifest, raw[:len(manifestMagic)])
	}
	ver := int(binary.LittleEndian.Uint16(raw[len(manifestMagic):]))
	if ver > FormatVersion {
		return m, fmt.Errorf("%w: manifest version %d, this build reads <= %d", ErrVersionTooNew, ver, FormatVersion)
	}
	want := binary.LittleEndian.Uint32(raw[len(manifestMagic)+2:])
	payload := raw[header:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return m, fmt.Errorf("%w: manifest payload CRC %08x, stored %08x", ErrCRCMismatch, got, want)
	}
	if err := json.Unmarshal(payload, &m); err != nil {
		return m, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	m.Version = ver
	return m, nil
}

// Checkpoint is one loaded (manifest-validated) checkpoint.
type Checkpoint struct {
	dir      string
	Manifest Manifest
}

// HasSection reports whether the manifest declares a section by name —
// the forward-compatibility probe for sections newer engines write
// optionally (e.g. the selective scheduler's bitmap).
func (c *Checkpoint) HasSection(name string) bool {
	for i := range c.Manifest.Sections {
		if c.Manifest.Sections[i].Name == name {
			return true
		}
	}
	return false
}

// Section reads one section's bytes, verifying size and CRC against the
// manifest.
func (c *Checkpoint) Section(name string) ([]byte, error) {
	var sec *Section
	for i := range c.Manifest.Sections {
		if c.Manifest.Sections[i].Name == name {
			sec = &c.Manifest.Sections[i]
			break
		}
	}
	if sec == nil {
		return nil, fmt.Errorf("%w: no section %q", ErrBadManifest, name)
	}
	data, err := os.ReadFile(filepath.Join(c.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: section %q missing", ErrTruncated, name)
		}
		return nil, fmt.Errorf("checkpoint: reading section %q: %w", name, err)
	}
	if int64(len(data)) != sec.Size {
		return nil, fmt.Errorf("%w: section %q is %d bytes, manifest says %d", ErrTruncated, name, len(data), sec.Size)
	}
	if got := crc32.ChecksumIEEE(data); got != sec.CRC32 {
		return nil, fmt.Errorf("%w: section %q CRC %08x, manifest says %08x", ErrCRCMismatch, name, got, sec.CRC32)
	}
	return data, nil
}

// writeFileSync writes data and fsyncs before closing, so a later rename
// publishes fully durable bytes.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: creating %q: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: writing %q: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: syncing %q: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %q: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so entry creations/renames are durable.
// Platforms that cannot sync directories degrade gracefully.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: opening dir %q: %w", dir, err)
	}
	// Directory fsync is unsupported on some platforms; the rename is
	// still atomic there, so best-effort is the right call.
	_ = f.Sync()
	return f.Close()
}
