// Package csr implements the Compressed Sparse Row layout that
// GraphChi-class systems and the paper's no-DOS ablation use: a vertex
// index with one offset entry per vertex over the natural (unrelabeled,
// possibly gappy) ID space, plus a packed adjacency file.
//
// The index costs 8 bytes per vertex, so for large graphs it dwarfs the
// degree-ordered bucket table — this is the contrast the paper's Table XI
// quantifies, and the reason GraphChi fails on the xlarge graph (the
// resident index exceeds the memory budget).
package csr

import (
	"encoding/binary"
	"fmt"

	"graphz/internal/extsort"
	"graphz/internal/graph"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// EntryBytes is the size of one adjacency entry (a destination ID).
const EntryBytes = 4

// IndexEntryBytes is the size of one vertex index entry (a u64 offset).
const IndexEntryBytes = 8

// File name suffixes under a graph's prefix.
const (
	suffixEdges = ".csr.edges"
	suffixIndex = ".csr.index"
	suffixMeta  = ".csr.meta"
)

// Graph is a CSR graph resident on a device. Vertex IDs are the original
// input IDs; every ID in [0, NumVertices) has an index entry whether or
// not it touches an edge (that is what makes the index large).
type Graph struct {
	dev    *storage.Device
	prefix string

	NumVertices int // maxID+1: the dense natural ID space
	NumEdges    int64

	offsets []int64 // resident index; nil until LoadIndex
}

// EdgesFile returns the adjacency file name.
func (g *Graph) EdgesFile() string { return g.prefix + suffixEdges }

// IndexFile returns the vertex index file name.
func (g *Graph) IndexFile() string { return g.prefix + suffixIndex }

// Device returns the device the graph lives on.
func (g *Graph) Device() *storage.Device { return g.dev }

// IndexBytes returns the resident size of the vertex index: one offset
// per vertex plus the terminator.
func (g *Graph) IndexBytes() int64 {
	return int64(g.NumVertices+1) * IndexEntryBytes
}

// LoadIndex reads the index file into memory (charging its IO to the
// device). Engines must call it before DegreeOf/OffsetOf and must account
// IndexBytes against their memory budget.
func (g *Graph) LoadIndex() error {
	data, err := storage.ReadAllFile(g.dev, g.IndexFile())
	if err != nil {
		return fmt.Errorf("csr: loading index: %w", err)
	}
	if len(data) != int(g.IndexBytes()) {
		return fmt.Errorf("csr: index file has %d bytes, want %d", len(data), g.IndexBytes())
	}
	g.offsets = make([]int64, g.NumVertices+1)
	for i := range g.offsets {
		g.offsets[i] = int64(binary.LittleEndian.Uint64(data[i*IndexEntryBytes:]))
	}
	return nil
}

// IndexLoaded reports whether LoadIndex has run.
func (g *Graph) IndexLoaded() bool { return g.offsets != nil }

// DegreeOf returns the out-degree of x. The index must be loaded; x must
// be in range.
func (g *Graph) DegreeOf(x graph.VertexID) uint32 {
	return uint32(g.offsets[x+1] - g.offsets[x])
}

// OffsetOf returns the edge-entry offset of x's adjacency. The index must
// be loaded; x must be in range.
func (g *Graph) OffsetOf(x graph.VertexID) int64 { return g.offsets[x] }

// Adjacency reads x's out-neighbors (random access), appending to dst.
func (g *Graph) Adjacency(x graph.VertexID, dst []graph.VertexID) ([]graph.VertexID, error) {
	if !g.IndexLoaded() {
		return nil, fmt.Errorf("csr: index not loaded")
	}
	if int(x) >= g.NumVertices {
		return nil, fmt.Errorf("csr: vertex %d out of range [0,%d)", x, g.NumVertices)
	}
	deg := int(g.DegreeOf(x))
	if deg == 0 {
		return dst, nil
	}
	f, err := g.dev.Open(g.EdgesFile())
	if err != nil {
		return nil, err
	}
	buf := make([]byte, deg*EntryBytes)
	n, err := f.ReadAt(buf, g.OffsetOf(x)*EntryBytes)
	if err != nil {
		return nil, err
	}
	if n != len(buf) {
		return nil, fmt.Errorf("csr: short adjacency read for %d", x)
	}
	for i := 0; i < deg; i++ {
		dst = append(dst, graph.VertexID(binary.LittleEndian.Uint32(buf[i*EntryBytes:])))
	}
	return dst, nil
}

// BuildConfig parameterizes CSR construction.
type BuildConfig struct {
	Dev          *storage.Device
	Clock        *sim.Clock
	MemoryBudget int64
}

// Build converts a raw edge file into CSR: one external sort by source,
// then one streaming pass writing the packed adjacency and the per-vertex
// offset index.
func Build(cfg BuildConfig, edgeFile, prefix string) (*Graph, error) {
	if cfg.MemoryBudget < extsort.MinMemoryBudget {
		cfg.MemoryBudget = extsort.MinMemoryBudget
	}
	dev := cfg.Dev
	bySrc := prefix + ".csr.tmp.bysrc"
	err := extsort.Sort(extsort.Config{
		Dev:          dev,
		Clock:        cfg.Clock,
		RecordSize:   graph.EdgeBytes,
		Key:          func(rec []byte) uint64 { return uint64(binary.LittleEndian.Uint32(rec)) },
		MemoryBudget: cfg.MemoryBudget,
		TempPrefix:   bySrc + ".run",
	}, edgeFile, bySrc)
	if err != nil {
		return nil, fmt.Errorf("csr: sorting: %w", err)
	}
	defer dev.Remove(bySrc)

	g := &Graph{dev: dev, prefix: prefix}

	// We need the max ID (to size the index) before writing it, and the
	// natural ID space includes destinations; a first quick scan finds
	// it. The paper charges GraphChi-style systems this extra pass too
	// (their preprocessing computes vertex counts up front).
	inF, err := dev.Open(bySrc)
	if err != nil {
		return nil, err
	}
	maxID, _, err := graph.Extent(inF)
	if err != nil {
		return nil, fmt.Errorf("csr: %w", err)
	}
	eF, err := dev.Create(g.EdgesFile())
	if err != nil {
		return nil, err
	}
	iF, err := dev.Create(g.IndexFile())
	if err != nil {
		return nil, err
	}
	s := graph.NewEdgeScanner(inF)
	ew := storage.NewWriter(eF)
	iw := storage.NewWriter(iF)

	numVertices := 0
	if inF.Size() > 0 || maxID > 0 {
		numVertices = int(maxID) + 1
	}
	var off int64
	nextIndexed := 0 // next vertex needing an index entry
	writeIndexUpTo := func(v int) error {
		var buf [IndexEntryBytes]byte
		for ; nextIndexed <= v; nextIndexed++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(off))
			if _, err := iw.Write(buf[:]); err != nil {
				return err
			}
		}
		return nil
	}
	var entry [EntryBytes]byte
	for s.Scan() {
		e := s.Edge()
		if err := writeIndexUpTo(int(e.Src)); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(entry[:], uint32(e.Dst))
		if _, err := ew.Write(entry[:]); err != nil {
			return nil, err
		}
		off++
	}
	if s.Err() != nil {
		return nil, fmt.Errorf("csr: scanning: %w", s.Err())
	}
	// Trailing vertices with no out-edges plus the terminator entry.
	if err := writeIndexUpTo(numVertices); err != nil {
		return nil, err
	}
	if err := ew.Flush(); err != nil {
		return nil, err
	}
	if err := iw.Flush(); err != nil {
		return nil, err
	}
	g.NumVertices = numVertices
	g.NumEdges = off
	cfg.Clock.ComputeBytes(off * graph.EdgeBytes)
	if err := g.writeMeta(); err != nil {
		return nil, err
	}
	return g, nil
}

const metaMagic = 0x525343_47534f44

func (g *Graph) writeMeta() error {
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint64(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(g.NumVertices))
	binary.LittleEndian.PutUint64(buf[16:], uint64(g.NumEdges))
	return storage.WriteAll(g.dev, g.prefix+suffixMeta, buf)
}

// Load opens a previously built CSR graph by prefix. The index is not
// resident until LoadIndex.
func Load(dev *storage.Device, prefix string) (*Graph, error) {
	buf, err := storage.ReadAllFile(dev, prefix+suffixMeta)
	if err != nil {
		return nil, fmt.Errorf("csr: loading meta: %w", err)
	}
	if len(buf) != 24 || binary.LittleEndian.Uint64(buf) != metaMagic {
		return nil, fmt.Errorf("csr: %q is not a CSR meta file", prefix+suffixMeta)
	}
	return &Graph{
		dev:         dev,
		prefix:      prefix,
		NumVertices: int(binary.LittleEndian.Uint64(buf[8:])),
		NumEdges:    int64(binary.LittleEndian.Uint64(buf[16:])),
	}, nil
}
