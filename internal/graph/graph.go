// Package graph defines the basic types shared by every storage format and
// engine in the GraphZ reproduction: vertex identifiers, edges, and the
// fixed-size value codecs engines use to move vertex, message, and edge
// data through out-of-core storage.
package graph

import (
	"encoding/binary"
	"fmt"
	"math"
)

// VertexID identifies a vertex. Input graphs may use sparse IDs (the
// maximum ID can exceed the vertex count, as in real-world dumps); the
// degree-ordered conversion relabels them densely.
type VertexID uint32

// NoVertex is a sentinel for "no vertex" (e.g. an unreachable BFS parent).
const NoVertex = VertexID(math.MaxUint32)

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst VertexID
}

// EdgeBytes is the on-disk size of one Edge record (two uint32 values).
const EdgeBytes = 8

// PutEdge encodes e into buf, which must be at least EdgeBytes long.
func PutEdge(buf []byte, e Edge) {
	binary.LittleEndian.PutUint32(buf[0:4], uint32(e.Src))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(e.Dst))
}

// GetEdge decodes an Edge from buf, which must be at least EdgeBytes long.
func GetEdge(buf []byte) Edge {
	return Edge{
		Src: VertexID(binary.LittleEndian.Uint32(buf[0:4])),
		Dst: VertexID(binary.LittleEndian.Uint32(buf[4:8])),
	}
}

// Codec serializes values of type T into a fixed number of bytes. Engines
// use codecs to persist vertex states, messages, and edge values without
// reflection. Implementations must be stateless and safe for concurrent
// use.
type Codec[T any] interface {
	// Size returns the fixed encoded size in bytes.
	Size() int
	// Encode writes v into buf[:Size()].
	Encode(buf []byte, v T)
	// Decode reads a value from buf[:Size()].
	Decode(buf []byte) T
}

// BulkCodec is the optional bulk form of a Codec: Encode and Decode over a
// slice of values packed back to back, one call for a whole block. The
// GraphZ engine moves vertex states a partition at a time, so a codec that
// has it costs one call per block instead of one per value.
type BulkCodec[T any] interface {
	// EncodeAll writes vs[i] into buf[i*Size():] for every i.
	EncodeAll(buf []byte, vs []T)
	// DecodeAll reads vs[i] from buf[i*Size():] for every i.
	DecodeAll(vs []T, buf []byte)
}

// Bulk returns c's own bulk form, or, for a codec without one, its
// per-value loop.
func Bulk[T any](c Codec[T]) BulkCodec[T] {
	if b, ok := c.(BulkCodec[T]); ok {
		return b
	}
	return perValue[T]{c}
}

// perValue is the bulk form of a codec that has none: one call per value.
type perValue[T any] struct{ c Codec[T] }

func (p perValue[T]) EncodeAll(buf []byte, vs []T) {
	size := p.c.Size()
	for i, v := range vs {
		p.c.Encode(buf[i*size:], v)
	}
}

func (p perValue[T]) DecodeAll(vs []T, buf []byte) {
	size := p.c.Size()
	for i := range vs {
		vs[i] = p.c.Decode(buf[i*size:])
	}
}

// Uint32Codec encodes uint32 values in 4 bytes.
type Uint32Codec struct{}

func (Uint32Codec) Size() int { return 4 }

func (Uint32Codec) Encode(buf []byte, v uint32) { binary.LittleEndian.PutUint32(buf, v) }

func (Uint32Codec) Decode(buf []byte) uint32 { return binary.LittleEndian.Uint32(buf) }

// Float32Codec encodes float32 values in 4 bytes.
type Float32Codec struct{}

func (Float32Codec) Size() int { return 4 }

func (Float32Codec) Encode(buf []byte, v float32) {
	binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
}

func (Float32Codec) Decode(buf []byte) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(buf))
}

// Float64Codec encodes float64 values in 8 bytes.
type Float64Codec struct{}

func (Float64Codec) Size() int { return 8 }

func (Float64Codec) Encode(buf []byte, v float64) {
	binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
}

func (Float64Codec) Decode(buf []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf))
}

// VertexIDCodec encodes VertexID values in 4 bytes.
type VertexIDCodec struct{}

func (VertexIDCodec) Size() int { return 4 }

func (VertexIDCodec) Encode(buf []byte, v VertexID) {
	binary.LittleEndian.PutUint32(buf, uint32(v))
}

func (VertexIDCodec) Decode(buf []byte) VertexID {
	return VertexID(binary.LittleEndian.Uint32(buf))
}

// EdgeWeight derives a deterministic pseudo-random weight in (0, 1] for the
// directed edge (u, v). SSSP and Belief Propagation need per-edge data that
// the paper's input files carried; deriving it hashes keeps the stored
// formats identical across engines so IO comparisons stay fair (see
// DESIGN.md, substitutions).
func EdgeWeight(u, v VertexID) float32 {
	h := edgeHash(u, v)
	// Map the top 24 bits onto (0,1]: never zero so SSSP distances
	// strictly increase along a path.
	return float32(h>>40+1) / float32(1<<24)
}

// EdgeCoupling derives a deterministic coupling strength in [0.45, 0.60]
// for Belief Propagation's pairwise potentials. The range is kept weak
// (close to the non-interacting 0.5) so loopy BP stays in its contraction
// regime on power-law graphs, where hub vertices sum hundreds of
// messages; stronger couplings make the MRF multi-modal and the
// different engines' schedules would select different modes.
func EdgeCoupling(u, v VertexID) float64 {
	h := edgeHash(u, v)
	return 0.45 + 0.15*float64(h&0xFFFFFF)/float64(1<<24)
}

// edgeHash mixes an edge into 64 bits (splitmix64 finalizer over the packed
// endpoints).
func edgeHash(u, v VertexID) uint64 {
	x := uint64(u)<<32 | uint64(v)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Degrees computes the out-degree of every vertex in edges, over ID space
// [0, numVertices). It is an in-memory helper for tests, examples, and the
// in-memory baselines; the out-of-core engines compute degrees with
// external sorting instead.
func Degrees(edges []Edge, numVertices int) ([]uint32, error) {
	deg := make([]uint32, numVertices)
	for _, e := range edges {
		if int(e.Src) >= numVertices {
			return nil, fmt.Errorf("graph: edge source %d out of range [0,%d)", e.Src, numVertices)
		}
		if int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("graph: edge destination %d out of range [0,%d)", e.Dst, numVertices)
		}
		deg[e.Src]++
	}
	return deg, nil
}

// MaxID returns the largest vertex ID mentioned by edges, or 0 if edges is
// empty.
func MaxID(edges []Edge) VertexID {
	var m VertexID
	for _, e := range edges {
		if e.Src > m {
			m = e.Src
		}
		if e.Dst > m {
			m = e.Dst
		}
	}
	return m
}

// UniqueOutDegrees returns the number of distinct out-degrees among the
// numVertices vertices of edges (degree 0 counts if present). This is the
// quantity the paper's Claim 1 bounds by 3*sqrt(|E|).
func UniqueOutDegrees(edges []Edge, numVertices int) (int, error) {
	deg, err := Degrees(edges, numVertices)
	if err != nil {
		return 0, err
	}
	seen := make(map[uint32]struct{})
	for _, d := range deg {
		seen[d] = struct{}{}
	}
	return len(seen), nil
}
