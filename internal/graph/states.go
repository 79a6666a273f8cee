package graph

import (
	"fmt"

	"graphz/internal/sim"
	"graphz/internal/storage"
)

// StateFile is a vertex-state file: one Codec-sized state per vertex,
// packed in vertex-ID order on a device. Every engine keeps its states in
// one and moves them a range at a time — a partition, interval or
// streaming partition — through a staging buffer the caller owns: one
// BulkCodec call and one DefaultBlockSize device operation a block. Each
// move charges the clock for its bytes (sim.Clock.ComputeBytes).
type StateFile[V any] struct {
	dev   *storage.Device
	name  string
	codec BulkCodec[V]
	size  int
	clock *sim.Clock
}

// NewStateFile returns the state file name on dev, coded by c and charged
// to clock (nil: no accounting). It neither creates nor opens the file.
func NewStateFile[V any](dev *storage.Device, name string, c Codec[V], clock *sim.Clock) StateFile[V] {
	return StateFile[V]{dev: dev, name: name, codec: Bulk(c), size: c.Size(), clock: clock}
}

// Name returns the file's name on the device.
func (s StateFile[V]) Name() string { return s.name }

// Load decodes states [lo, lo+len(vs)) into vs, reading them through buf,
// which holds at least len(vs)·Size bytes. A file too short for the range
// is an error.
func (s StateFile[V]) Load(vs []V, lo VertexID, buf []byte) error {
	f, err := s.dev.Open(s.name)
	if err != nil {
		return err
	}
	buf = buf[:len(vs)*s.size]
	if err := storage.ReadFullAt(f, buf, int64(lo)*int64(s.size)); err != nil {
		return fmt.Errorf("graph: loading vertex states [%d,%d) of %q: %w", lo, int64(lo)+int64(len(vs)), s.name, err)
	}
	s.codec.DecodeAll(vs, buf)
	s.clock.ComputeBytes(int64(len(buf)))
	return nil
}

// Store encodes vs into buf, which holds at least len(vs)·Size bytes, and
// writes them as states [lo, lo+len(vs)).
func (s StateFile[V]) Store(vs []V, lo VertexID, buf []byte) error {
	buf = buf[:len(vs)*s.size]
	s.codec.EncodeAll(buf, vs)
	f, err := s.dev.Open(s.name)
	if err != nil {
		return err
	}
	if err := storage.WriteFullAt(f, buf, int64(lo)*int64(s.size)); err != nil {
		return err
	}
	s.clock.ComputeBytes(int64(len(buf)))
	return nil
}

// ReadAll reads the whole file, which must hold exactly n states: the
// final values an engine's Values returns.
func (s StateFile[V]) ReadAll(n int) ([]V, error) {
	data, err := storage.ReadAllFile(s.dev, s.name)
	if err != nil {
		return nil, err
	}
	if len(data) != n*s.size {
		return nil, fmt.Errorf("graph: vertex state file %q has %d bytes, want %d", s.name, len(data), n*s.size)
	}
	out := make([]V, n)
	s.codec.DecodeAll(out, data)
	return out, nil
}
