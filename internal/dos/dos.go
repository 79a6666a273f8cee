// Package dos implements Degree-Ordered Storage, the paper's first
// contribution (Section III).
//
// Vertices are relabeled in descending out-degree order (ties broken by
// original ID). The vertex index then collapses to one entry per *unique
// degree*: the ids_table maps a degree to the smallest new ID having it,
// and the id_offset_table maps a degree to the edge-file offset of that
// first ID. Both tables are stored here as one slice of Buckets. A
// vertex's adjacency location is computed, never stored:
//
//	offset(x) = id_offset_table[d] + (x - ids_table[d]) * d
//
// Because natural graphs have very few unique degrees (paper Claim 1:
// |UD| <= 3*sqrt(E)), the index is typically kilobytes where CSR needs
// gigabytes, so it always resides in memory and vertex lookup never
// touches the disk.
package dos

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"graphz/internal/extsort"
	"graphz/internal/graph"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// Bucket is one row of the combined ids/id-offset tables: the run of new
// IDs [FirstID, nextBucket.FirstID) all have out-degree Degree, and the
// adjacency list of FirstID starts at edge-entry offset FirstOff.
type Bucket struct {
	Degree   uint32
	FirstID  graph.VertexID
	FirstOff int64 // in 4-byte edge entries, not bytes
}

// BucketBytes is the in-memory (and on-disk meta) size of one Bucket.
const BucketBytes = 16

// EntryBytes is the size of one adjacency entry in the edges file (a
// destination VertexID).
const EntryBytes = 4

// Graph is a degree-ordered graph resident on a device. The Buckets slice
// is the entire vertex index; everything else stays on the device (the v2
// per-block offset table also resides in memory, one u64 per ~64Ki
// entries — still ~4 orders of magnitude smaller than a per-vertex
// index).
type Graph struct {
	dev    *storage.Device
	prefix string

	NumVertices int   // dense new-ID space (positive- plus zero-degree vertices)
	NumEdges    int64 // adjacency entries in the edges file
	MaxOldID    graph.VertexID
	Buckets     []Bucket // ascending FirstID, descending Degree

	// v2 block-codec state; all zero for a v1 graph.
	codec        storage.Codec // block codec (nil for v1 — raw fixed entries)
	blockEntries int64         // entries per encoded block
	blockOffs    []int64       // byte offset per block, plus the file size
}

// Version reports the on-device format version: 1 (raw fixed 4-byte
// entries) or 2 (block-encoded edges with a per-block offset table).
func (g *Graph) Version() int {
	if g.blockOffs == nil {
		return 1
	}
	return 2
}

// Codec returns the adjacency block codec (storage.CodecRaw for v1).
func (g *Graph) Codec() storage.Codec {
	if g.codec == nil {
		return storage.CodecRaw
	}
	return g.codec
}

// BlockLayout describes how the edges file is addressed on the device —
// the translation the engine's Sio/Dispatcher pipeline needs to keep its
// entry-offset arithmetic while the bytes underneath are compressed.
func (g *Graph) BlockLayout() storage.BlockLayout {
	if g.Version() == 1 {
		return storage.RawBlockLayout(g.NumEdges)
	}
	return storage.BlockLayout{
		Codec:        g.codec,
		BlockEntries: g.blockEntries,
		NumEntries:   g.NumEdges,
		BlockOffs:    g.blockOffs,
	}
}

// BlockTableBytes returns the resident size of the v2 per-block offset
// table (zero for v1). Reported separately from IndexBytes so the paper's
// Table XI index-size comparison stays codec-independent.
func (g *Graph) BlockTableBytes() int64 { return int64(len(g.blockOffs)) * 8 }

// File name suffixes under the graph's prefix.
const (
	suffixEdges   = ".edges"   // dst entries grouped by new src, ascending
	suffixMeta    = ".meta"    // counts + bucket table
	suffixNew2Old = ".new2old" // u32 old ID per new ID
	suffixOld2New = ".old2new" // u32 new ID per old ID (NoVertex for gaps)
)

// EdgesFile returns the device file name holding the adjacency entries.
func (g *Graph) EdgesFile() string { return g.prefix + suffixEdges }

// MetaFile returns the device file name holding the metadata.
func (g *Graph) MetaFile() string { return g.prefix + suffixMeta }

// Device returns the device the graph lives on.
func (g *Graph) Device() *storage.Device { return g.dev }

// Prefix returns the file-name prefix of the graph.
func (g *Graph) Prefix() string { return g.prefix }

// IndexBytes returns the resident size of the vertex index — the quantity
// the paper's Table XI compares against CSR.
func (g *Graph) IndexBytes() int64 { return int64(len(g.Buckets)) * BucketBytes }

// UniqueDegrees returns the number of distinct out-degrees.
func (g *Graph) UniqueDegrees() int { return len(g.Buckets) }

// bucketOf returns the index of the bucket containing new ID x: the last
// bucket with FirstID <= x.
func (g *Graph) bucketOf(x graph.VertexID) (int, error) {
	if int(x) >= g.NumVertices {
		return 0, fmt.Errorf("dos: vertex %d out of range [0,%d)", x, g.NumVertices)
	}
	// First bucket with FirstID > x, minus one.
	i := sort.Search(len(g.Buckets), func(i int) bool { return g.Buckets[i].FirstID > x })
	if i == 0 {
		// Only possible on a corrupt bucket table (bucket 0 must cover ID 0).
		return 0, fmt.Errorf("dos: vertex %d precedes the first bucket", x)
	}
	return i - 1, nil
}

// Degree returns the out-degree of new ID x.
func (g *Graph) Degree(x graph.VertexID) (uint32, error) {
	b, err := g.bucketOf(x)
	if err != nil {
		return 0, err
	}
	return g.Buckets[b].Degree, nil
}

// EdgeOffset returns the edge-entry offset of x's adjacency list, using
// the paper's arithmetic. The adjacency occupies entries
// [EdgeOffset(x), EdgeOffset(x)+Degree(x)).
func (g *Graph) EdgeOffset(x graph.VertexID) (int64, error) {
	b, err := g.bucketOf(x)
	if err != nil {
		return 0, err
	}
	bk := g.Buckets[b]
	return bk.FirstOff + int64(x-bk.FirstID)*int64(bk.Degree), nil
}

// Adjacency reads the out-neighbors of x (random access), appending to
// dst and returning it.
func (g *Graph) Adjacency(x graph.VertexID, dst []graph.VertexID) ([]graph.VertexID, error) {
	b, err := g.bucketOf(x)
	if err != nil {
		return nil, err
	}
	deg := int(g.Buckets[b].Degree)
	if deg == 0 {
		return dst, nil
	}
	off := g.Buckets[b].FirstOff + int64(x-g.Buckets[b].FirstID)*int64(g.Buckets[b].Degree)
	r, err := g.Entries(off, off+int64(deg))
	if err != nil {
		return nil, err
	}
	for i := 0; i < deg; i++ {
		v, err := r.Next()
		if err != nil {
			return nil, fmt.Errorf("dos: adjacency of vertex %d: %w", x, err)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// EntryReader streams decoded adjacency entries over an entry range,
// transparently handling both the v1 raw layout and v2 encoded blocks
// (each block is read and decoded once, in order). Next returns io.EOF
// when the range is exhausted.
type EntryReader struct {
	g    *Graph
	f    *storage.File
	blk  storage.BlockLayout
	next int64 // absolute entry offset of the next entry
	end  int64

	r *storage.Reader // v1: sequential range reader

	dec    []uint32 // v2: decoded entries of block cur
	cur    int64    // v2: decoded block index; -1 before the first
	curOff int64    // v2: byte offset of block cur (for error reporting)
}

// Entries returns a reader over the adjacency entries [start, end).
func (g *Graph) Entries(start, end int64) (*EntryReader, error) {
	if start < 0 || end < start || end > g.NumEdges {
		return nil, fmt.Errorf("dos: entry range [%d,%d) outside [0,%d)", start, end, g.NumEdges)
	}
	f, err := g.dev.Open(g.EdgesFile())
	if err != nil {
		return nil, err
	}
	r := &EntryReader{g: g, f: f, blk: g.BlockLayout(), next: start, end: end, cur: -1}
	if g.Version() == 1 {
		r.r = storage.NewRangeReader(f, start*EntryBytes, end*EntryBytes)
	}
	return r, nil
}

// ByteOffset returns the file byte offset associated with the entry Next
// will return: the entry's own offset for v1, or the start of its encoded
// block for v2 (individual entries have no addressable bytes there).
func (r *EntryReader) ByteOffset() int64 {
	if r.g.Version() == 1 {
		return r.next * EntryBytes
	}
	b := r.next / r.blk.BlockEntries
	if b >= r.blk.NumBlocks() {
		return r.blk.BlockOffs[len(r.blk.BlockOffs)-1]
	}
	lo, _ := r.blk.BlockRange(b)
	return lo
}

// Next returns the next entry, or io.EOF past the end of the range.
func (r *EntryReader) Next() (graph.VertexID, error) {
	if r.next >= r.end {
		return 0, io.EOF
	}
	if r.r != nil {
		rec, err := r.r.Next(EntryBytes)
		if err != nil {
			return 0, fmt.Errorf("dos: reading entry %d: %w", r.next, err)
		}
		r.next++
		return graph.VertexID(binary.LittleEndian.Uint32(rec)), nil
	}
	b := r.next / r.blk.BlockEntries
	if b != r.cur {
		if err := r.loadBlock(b); err != nil {
			return 0, err
		}
	}
	v := r.dec[r.next-b*r.blk.BlockEntries]
	r.next++
	return graph.VertexID(v), nil
}

// loadBlock reads and decodes encoded block b into r.dec.
func (r *EntryReader) loadBlock(b int64) error {
	lo, hi := r.blk.BlockRange(b)
	buf := make([]byte, hi-lo)
	if err := storage.NewRangeReader(r.f, lo, hi).ReadFull(buf); err != nil {
		return fmt.Errorf("dos: reading block %d at byte %d: %w", b, lo, err)
	}
	dec, err := r.blk.Codec.DecodeBlock(r.dec[:0], buf)
	if err != nil {
		return fmt.Errorf("dos: decoding block %d at byte %d: %w", b, lo, err)
	}
	if int64(len(dec)) != r.blk.EntriesIn(b) {
		return fmt.Errorf("dos: block %d at byte %d decodes to %d entries, want %d",
			b, lo, len(dec), r.blk.EntriesIn(b))
	}
	r.dec, r.cur, r.curOff = dec, b, lo
	return nil
}

// NewToOld loads the full new→old ID map (one u32 per new ID). Intended
// for result extraction, not the inner loop.
func (g *Graph) NewToOld() ([]graph.VertexID, error) {
	data, err := storage.ReadAllFile(g.dev, g.prefix+suffixNew2Old)
	if err != nil {
		return nil, err
	}
	out := make([]graph.VertexID, len(data)/4)
	for i := range out {
		out[i] = graph.VertexID(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return out, nil
}

// OldToNew loads the dense old→new ID map over [0, MaxOldID]. Old IDs
// that name no vertex map to graph.NoVertex.
func (g *Graph) OldToNew() ([]graph.VertexID, error) {
	data, err := storage.ReadAllFile(g.dev, g.prefix+suffixOld2New)
	if err != nil {
		return nil, err
	}
	out := make([]graph.VertexID, len(data)/4)
	for i := range out {
		out[i] = graph.VertexID(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return out, nil
}

// writeMeta persists counts and the bucket table; a v2 graph additionally
// writes the codec byte, the block cut, and the per-block offset table
// (see docs/FORMAT.md).
func (g *Graph) writeMeta() error {
	if g.Version() == 2 {
		return g.writeMetaV2()
	}
	buf := make([]byte, metaHeaderV1+len(g.Buckets)*BucketBytes)
	binary.LittleEndian.PutUint64(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(g.NumVertices))
	binary.LittleEndian.PutUint64(buf[16:], uint64(g.NumEdges))
	binary.LittleEndian.PutUint32(buf[24:], uint32(g.MaxOldID))
	binary.LittleEndian.PutUint32(buf[28:], uint32(len(g.Buckets)))
	for i, b := range g.Buckets {
		o := metaHeaderV1 + i*BucketBytes
		binary.LittleEndian.PutUint32(buf[o:], b.Degree)
		binary.LittleEndian.PutUint32(buf[o+4:], uint32(b.FirstID))
		binary.LittleEndian.PutUint64(buf[o+8:], uint64(b.FirstOff))
	}
	return storage.WriteAll(g.dev, g.MetaFile(), buf)
}

func (g *Graph) writeMetaV2() error {
	nb := int64(len(g.blockOffs)) - 1
	buf := make([]byte, metaHeaderV2+len(g.Buckets)*BucketBytes+len(g.blockOffs)*8)
	binary.LittleEndian.PutUint64(buf[0:], metaMagicV2)
	binary.LittleEndian.PutUint64(buf[8:], uint64(g.NumVertices))
	binary.LittleEndian.PutUint64(buf[16:], uint64(g.NumEdges))
	binary.LittleEndian.PutUint32(buf[24:], uint32(g.MaxOldID))
	binary.LittleEndian.PutUint32(buf[28:], uint32(len(g.Buckets)))
	binary.LittleEndian.PutUint32(buf[32:], uint32(g.codec.ID()))
	binary.LittleEndian.PutUint32(buf[36:], uint32(g.blockEntries))
	binary.LittleEndian.PutUint64(buf[40:], uint64(nb))
	for i, b := range g.Buckets {
		o := metaHeaderV2 + i*BucketBytes
		binary.LittleEndian.PutUint32(buf[o:], b.Degree)
		binary.LittleEndian.PutUint32(buf[o+4:], uint32(b.FirstID))
		binary.LittleEndian.PutUint64(buf[o+8:], uint64(b.FirstOff))
	}
	tab := metaHeaderV2 + len(g.Buckets)*BucketBytes
	for i, off := range g.blockOffs {
		binary.LittleEndian.PutUint64(buf[tab+i*8:], uint64(off))
	}
	return storage.WriteAll(g.dev, g.MetaFile(), buf)
}

const (
	metaMagic    = 0x5a6872_47534f44  // "DOSGhZ"-ish tag (v1)
	metaMagicV2  = 0x325a687247534f44 // v1 tag with '2' in the top byte
	metaHeaderV1 = 32
	metaHeaderV2 = 48
)

// maxMetaVertices bounds the vertex/edge counts a meta file may claim:
// IDs are u32, so a dense new-ID space cannot exceed 2^32 (guards int
// conversions on hostile inputs).
const maxMetaVertices = int64(1) << 32

// Load opens a previously converted graph by prefix. Both format
// versions are recognized; malformed meta files of either version return
// errors, never panic (the FuzzMetaParse target holds this).
func Load(dev *storage.Device, prefix string) (*Graph, error) {
	buf, err := storage.ReadAllFile(dev, prefix+suffixMeta)
	if err != nil {
		return nil, fmt.Errorf("dos: loading meta: %w", err)
	}
	if len(buf) < metaHeaderV1 {
		return nil, fmt.Errorf("dos: %q is not a DOS meta file", prefix+suffixMeta)
	}
	magic := binary.LittleEndian.Uint64(buf)
	if magic != metaMagic && magic != metaMagicV2 {
		return nil, fmt.Errorf("dos: %q is not a DOS meta file", prefix+suffixMeta)
	}
	g := &Graph{
		dev:         dev,
		prefix:      prefix,
		NumVertices: int(binary.LittleEndian.Uint64(buf[8:])),
		NumEdges:    int64(binary.LittleEndian.Uint64(buf[16:])),
		MaxOldID:    graph.VertexID(binary.LittleEndian.Uint32(buf[24:])),
	}
	if v, e := binary.LittleEndian.Uint64(buf[8:]), binary.LittleEndian.Uint64(buf[16:]); v > uint64(maxMetaVertices) || e > uint64(maxMetaVertices) {
		return nil, fmt.Errorf("dos: meta claims %d vertices, %d edges: out of the u32 ID space", v, e)
	}
	header := metaHeaderV1
	if magic == metaMagicV2 {
		header = metaHeaderV2
		if len(buf) < metaHeaderV2 {
			return nil, fmt.Errorf("dos: v2 meta file truncated: %d bytes", len(buf))
		}
	}
	n := int64(binary.LittleEndian.Uint32(buf[28:]))
	want := int64(header) + n*BucketBytes
	if magic == metaMagicV2 {
		be := int64(binary.LittleEndian.Uint32(buf[36:]))
		if be <= 0 {
			return nil, fmt.Errorf("dos: v2 meta block size %d", be)
		}
		wantBlocks := (g.NumEdges + be - 1) / be
		nb := binary.LittleEndian.Uint64(buf[40:])
		if nb != uint64(wantBlocks) {
			return nil, fmt.Errorf("dos: v2 meta claims %d blocks, %d edges at %d entries/block need %d",
				nb, g.NumEdges, be, wantBlocks)
		}
		codec, err := storage.CodecByID(binary.LittleEndian.Uint32(buf[32:]))
		if err != nil {
			return nil, fmt.Errorf("dos: v2 meta: %w", err)
		}
		g.codec, g.blockEntries = codec, be
		want += (wantBlocks + 1) * 8
	}
	if int64(len(buf)) != want {
		return nil, fmt.Errorf("dos: meta file truncated: %d buckets claimed, %d bytes (want %d)", n, len(buf), want)
	}
	g.Buckets = make([]Bucket, n)
	for i := range g.Buckets {
		o := header + i*BucketBytes
		g.Buckets[i] = Bucket{
			Degree:   binary.LittleEndian.Uint32(buf[o:]),
			FirstID:  graph.VertexID(binary.LittleEndian.Uint32(buf[o+4:])),
			FirstOff: int64(binary.LittleEndian.Uint64(buf[o+8:])),
		}
	}
	if magic == metaMagicV2 {
		tab := int64(header) + n*BucketBytes
		nb := (g.NumEdges + g.blockEntries - 1) / g.blockEntries
		g.blockOffs = make([]int64, nb+1)
		for i := range g.blockOffs {
			off := int64(binary.LittleEndian.Uint64(buf[tab+int64(i)*8:]))
			if off < 0 {
				return nil, fmt.Errorf("dos: v2 block offset table negative at block %d (%d)", i, off)
			}
			if i > 0 && off < g.blockOffs[i-1] {
				return nil, fmt.Errorf("dos: v2 block offset table not monotone at block %d (%d after %d)",
					i, off, g.blockOffs[i-1])
			}
			g.blockOffs[i] = off
		}
		if g.blockOffs[0] != 0 {
			return nil, fmt.Errorf("dos: v2 block offset table starts at %d, want 0", g.blockOffs[0])
		}
	}
	return g, nil
}

// ConvertConfig parameterizes the out-of-core conversion.
type ConvertConfig struct {
	Dev *storage.Device
	// Clock receives compute charges; nil disables them.
	Clock *sim.Clock
	// MemoryBudget bounds the external sorts' in-memory chunks.
	MemoryBudget int64
	// RemoveInput deletes the raw edge file once the conversion no
	// longer needs it, reducing the peak device footprint (useful on
	// capacity-limited devices).
	RemoveInput bool
	// Codec selects the DOS v2 block codec for the emitted edges file
	// (storage.CodecRaw or storage.CodecGroupVarint). Nil emits the v1
	// format: raw fixed 4-byte entries and no offset table. A v2
	// conversion additionally orders each vertex's adjacency by
	// ascending new destination ID — the property the delta codec
	// exploits — where v1 preserves the legacy ascending-original-ID
	// order.
	Codec storage.Codec
	// BlockEntries overrides the v2 entries-per-block cut; 0 means
	// storage.DefaultBlockSize/4 (one raw device block), which keeps
	// codec blocks aligned 1:1 with selective scheduling's block-skip
	// granularity. Ignored for v1.
	BlockEntries int64
}

// Convert runs the paper's Section III-C pipeline: build ⟨src,dst,deg⟩
// triads, sort by (degree desc, src), relabel sources sequentially, sort
// the ⟨new,old⟩ map by old ID, sort edges by destination and relabel
// destinations by merge-join (assigning new IDs to zero-out-degree
// vertices on the fly), then sort by new source and emit the final
// adjacency file plus the ids/id-offset tables.
//
// Every pass is sequential over the device; only the bucket table (one
// entry per unique degree) and the sort chunks are held in memory.
func Convert(cfg ConvertConfig, edgeFile, prefix string) (*Graph, error) {
	if cfg.MemoryBudget < extsort.MinMemoryBudget {
		cfg.MemoryBudget = extsort.MinMemoryBudget
	}
	c := &converter{cfg: cfg, edgeFile: edgeFile, prefix: prefix}
	g, err := c.run()
	c.cleanup()
	if err != nil {
		return nil, err
	}
	return g, nil
}

type converter struct {
	cfg      ConvertConfig
	edgeFile string
	prefix   string
	temps    []string
}

func (c *converter) temp(name string) string {
	t := c.prefix + ".tmp." + name
	c.temps = append(c.temps, t)
	return t
}

func (c *converter) cleanup() {
	for _, t := range c.temps {
		c.cfg.Dev.Remove(t)
	}
}

// sort runs an external sort over converter-owned files; inputs are
// deleted as soon as their runs are formed to bound the device footprint.
func (c *converter) sort(recSz int, key func(rec []byte) uint64, in, out string) error {
	return c.sortOpt(recSz, key, in, out, true)
}

func (c *converter) sortOpt(recSz int, key func(rec []byte) uint64, in, out string, removeInput bool) error {
	return extsort.Sort(extsort.Config{
		Dev:          c.cfg.Dev,
		Clock:        c.cfg.Clock,
		RecordSize:   recSz,
		Key:          key,
		MemoryBudget: c.cfg.MemoryBudget,
		TempPrefix:   out + ".run",
		RemoveInput:  removeInput,
	}, in, out)
}

func (c *converter) charge(bytes int64) {
	if c.cfg.Clock != nil {
		c.cfg.Clock.ComputeBytes(bytes)
	}
}

// putID, putPair and putTriad write the conversion's three record shapes —
// one, two and three little-endian 32-bit words — where they go in w's
// block buffer.
func putID(w *storage.Writer, a uint32) error {
	binary.LittleEndian.PutUint32(w.Next(4), a)
	return w.Commit()
}

func putPair(w *storage.Writer, a, b uint32) error {
	rec := w.Next(8)
	binary.LittleEndian.PutUint32(rec[0:], a)
	binary.LittleEndian.PutUint32(rec[4:], b)
	return w.Commit()
}

func putTriad(w *storage.Writer, a, b, c uint32) error {
	rec := w.Next(triadBytes)
	binary.LittleEndian.PutUint32(rec[0:], a)
	binary.LittleEndian.PutUint32(rec[4:], b)
	binary.LittleEndian.PutUint32(rec[8:], c)
	return w.Commit()
}

const triadBytes = 12

// triadKeyDegSrc orders by degree descending (complemented into the high
// word), then source ascending: the paper's "deg as 1st key and src as
// 2nd key" with descending degree.
func triadKeyDegSrc(rec []byte) uint64 {
	deg := binary.LittleEndian.Uint32(rec[8:])
	src := binary.LittleEndian.Uint32(rec)
	return uint64(^deg)<<32 | uint64(src)
}

func edgeKeySrc(rec []byte) uint64 {
	return uint64(binary.LittleEndian.Uint32(rec))
}

// edgeKeySrcDst orders by (new src, new dst) — the v2 final sort, which
// guarantees ascending destinations within each adjacency list.
func edgeKeySrcDst(rec []byte) uint64 {
	return uint64(binary.LittleEndian.Uint32(rec))<<32 |
		uint64(binary.LittleEndian.Uint32(rec[4:]))
}

func edgeKeyDst(rec []byte) uint64 {
	return uint64(binary.LittleEndian.Uint32(rec[4:]))
}

func pairKeyFirst(rec []byte) uint64 {
	return uint64(binary.LittleEndian.Uint32(rec))
}

func (c *converter) run() (*Graph, error) {
	dev := c.cfg.Dev

	// Pass 1: annotate every edge with its source's out-degree,
	// producing the paper's ⟨src, dst, deg⟩ triad list. Degrees are
	// counted in a host-side array when the ID space is moderate (one
	// sequential scan), falling back to an external sort by source for
	// huge ID spaces.
	triads := c.temp("triads")
	maxOld, numEdges, err := c.buildTriads(c.edgeFile, triads)
	if err != nil {
		return nil, err
	}
	if c.cfg.RemoveInput {
		dev.Remove(c.edgeFile)
	}

	// Pass 2: sort triads by (degree desc, src asc) — the degree
	// order — and relabel sources sequentially.
	byDeg := c.temp("bydeg")
	if err := c.sort(triadBytes, triadKeyDegSrc, triads, byDeg); err != nil {
		return nil, fmt.Errorf("dos: sorting by degree: %w", err)
	}
	dev.Remove(triads)
	edges2 := c.temp("edges2")    // (newsrc, olddst)
	pairsIn := c.temp("pairs_in") // (old, new), unsorted
	g := &Graph{dev: dev, prefix: c.prefix, NumEdges: numEdges, MaxOldID: maxOld}
	numPositive, err := c.relabelSources(byDeg, edges2, pairsIn, g)
	if err != nil {
		return nil, err
	}
	dev.Remove(byDeg)

	// Pass 3: sort the map by old ID for the destination merge-join.
	pairsByOld := c.temp("pairs_byold")
	if err := c.sort(8, pairKeyFirst, pairsIn, pairsByOld); err != nil {
		return nil, fmt.Errorf("dos: sorting id map: %w", err)
	}
	dev.Remove(pairsIn)

	// Pass 4: sort edges by destination and relabel destinations,
	// assigning new IDs to zero-out-degree vertices as they appear.
	byDst := c.temp("bydst")
	if err := c.sort(graph.EdgeBytes, edgeKeyDst, edges2, byDst); err != nil {
		return nil, fmt.Errorf("dos: sorting by dst: %w", err)
	}
	dev.Remove(edges2)
	edges4 := c.temp("edges4")   // (newsrc, newdst)
	zeroPairs := c.temp("zeros") // (old, new) of zero-degree vertices, sorted by old
	numZero, err := c.relabelDestinations(byDst, pairsByOld, edges4, zeroPairs, numPositive)
	if err != nil {
		return nil, err
	}
	dev.Remove(byDst)
	g.NumVertices = numPositive + numZero
	if numZero > 0 {
		g.Buckets = append(g.Buckets, Bucket{
			Degree:   0,
			FirstID:  graph.VertexID(numPositive),
			FirstOff: numEdges,
		})
	}

	// Pass 5: merge the two (old, new) pair streams into the dense
	// old→new file, and append the zero-degree vertices' old IDs to
	// the new→old file.
	if err := c.emitMaps(pairsByOld, zeroPairs, g); err != nil {
		return nil, err
	}
	dev.Remove(pairsByOld)
	dev.Remove(zeroPairs)

	// Pass 6: sort relabeled edges by new source and strip sources;
	// what remains is the adjacency file, grouped by new ID. A v2
	// conversion sorts by (src, dst) so each adjacency list ascends —
	// consumers must not rely on within-list order (FORMAT.md), and the
	// delta codec feeds on the monotone runs.
	finalSorted := c.temp("final")
	key := edgeKeySrc
	if c.cfg.Codec != nil {
		key = edgeKeySrcDst
		g.codec = c.cfg.Codec
		g.blockEntries = c.cfg.BlockEntries
		if g.blockEntries <= 0 {
			g.blockEntries = int64(storage.DefaultBlockSize / EntryBytes)
		}
	}
	if err := c.sort(graph.EdgeBytes, key, edges4, finalSorted); err != nil {
		return nil, fmt.Errorf("dos: final sort: %w", err)
	}
	dev.Remove(edges4)
	if c.cfg.Codec != nil {
		err = c.emitEdgesV2(finalSorted, g)
	} else {
		err = c.emitEdges(finalSorted, g)
	}
	if err != nil {
		return nil, err
	}
	dev.Remove(finalSorted)

	if err := g.writeMeta(); err != nil {
		return nil, err
	}
	return g, nil
}

// hostDegreeCapIDs bounds the host-side degree array: ID spaces up to
// this size (1 GiB of uint32 counters) are counted in memory during
// preprocessing, exactly as GraphChi-class sharders do; larger spaces
// fall back to an external sort by source. A variable so tests can
// force the sorted path without a 2^28-ID graph.
var hostDegreeCapIDs = int64(1) << 28

// buildTriads emits the (src, dst, deg) triad list from the raw edges.
func (c *converter) buildTriads(in, out string) (maxOld graph.VertexID, numEdges int64, err error) {
	maxOld, numEdges, err = c.scanExtent(in)
	if err != nil {
		return 0, 0, err
	}
	if int64(maxOld)+1 <= hostDegreeCapIDs {
		err = c.buildTriadsCounted(in, out, maxOld, numEdges)
		return maxOld, numEdges, err
	}
	err = c.buildTriadsSorted(in, out, numEdges)
	return maxOld, numEdges, err
}

// scanExtent finds the maximum ID and edge count with one sequential
// pass.
func (c *converter) scanExtent(in string) (maxOld graph.VertexID, numEdges int64, err error) {
	inF, err := c.cfg.Dev.Open(in)
	if err != nil {
		return 0, 0, err
	}
	r := storage.NewReader(inF)
	for {
		rec, rerr := r.Next(graph.EdgeBytes)
		if rerr == io.EOF {
			return maxOld, numEdges, nil
		}
		if rerr != nil {
			return 0, 0, fmt.Errorf("dos: scanning edges: %w", rerr)
		}
		e := graph.GetEdge(rec)
		numEdges++
		if e.Src > maxOld {
			maxOld = e.Src
		}
		if e.Dst > maxOld {
			maxOld = e.Dst
		}
	}
}

// buildTriadsCounted counts out-degrees into a host array with one scan,
// then annotates every edge with its source degree in a second scan.
func (c *converter) buildTriadsCounted(in, out string, maxOld graph.VertexID, numEdges int64) error {
	deg := make([]uint32, int64(maxOld)+1)
	inF, err := c.cfg.Dev.Open(in)
	if err != nil {
		return err
	}
	r := storage.NewReader(inF)
	for {
		rec, rerr := r.Next(graph.EdgeBytes)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fmt.Errorf("dos: counting degrees: %w", rerr)
		}
		deg[graph.GetEdge(rec).Src]++
	}
	outF, err := c.cfg.Dev.Create(out)
	if err != nil {
		return err
	}
	w := storage.NewWriter(outF)
	r = storage.NewReader(inF)
	for {
		rec, rerr := r.Next(graph.EdgeBytes)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fmt.Errorf("dos: emitting triads: %w", rerr)
		}
		e := graph.GetEdge(rec)
		if err := putTriad(w, uint32(e.Src), uint32(e.Dst), deg[e.Src]); err != nil {
			return err
		}
	}
	c.charge(numEdges * (graph.EdgeBytes + triadBytes))
	return w.Flush()
}

// buildTriadsSorted is the fallback for huge ID spaces: sort edges by
// source so each source's run is contiguous, then annotate runs with
// their length.
func (c *converter) buildTriadsSorted(in, out string, numEdges int64) error {
	bySrc := c.temp("bysrc")
	if err := c.sortOpt(graph.EdgeBytes, edgeKeySrc, in, bySrc, c.cfg.RemoveInput); err != nil {
		return fmt.Errorf("dos: sorting by src: %w", err)
	}
	defer c.cfg.Dev.Remove(bySrc)
	inF, err := c.cfg.Dev.Open(bySrc)
	if err != nil {
		return err
	}
	outF, err := c.cfg.Dev.Create(out)
	if err != nil {
		return err
	}
	w := storage.NewWriter(outF)
	r := storage.NewReader(inF)

	var runSrc graph.VertexID
	var runDsts []graph.VertexID
	flush := func() error {
		deg := uint32(len(runDsts))
		for _, d := range runDsts {
			if err := putTriad(w, uint32(runSrc), uint32(d), deg); err != nil {
				return err
			}
		}
		runDsts = runDsts[:0]
		return nil
	}

	first := true
	for {
		rec, rerr := r.Next(graph.EdgeBytes)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fmt.Errorf("dos: scanning sorted edges: %w", rerr)
		}
		e := graph.GetEdge(rec)
		if first || e.Src != runSrc {
			if !first {
				if err := flush(); err != nil {
					return err
				}
			}
			runSrc = e.Src
			first = false
		}
		runDsts = append(runDsts, e.Dst)
	}
	if !first {
		if err := flush(); err != nil {
			return err
		}
	}
	c.charge(numEdges * (graph.EdgeBytes + triadBytes))
	return w.Flush()
}

// relabelSources walks the degree-sorted triads assigning dense new IDs to
// sources (0, 1, 2, ... in degree order), emitting (newsrc, olddst) edges,
// (old, new) map records, the new→old file head, and the bucket table.
func (c *converter) relabelSources(in, edgesOut, pairsOut string, g *Graph) (int, error) {
	inF, err := c.cfg.Dev.Open(in)
	if err != nil {
		return 0, err
	}
	eF, err := c.cfg.Dev.Create(edgesOut)
	if err != nil {
		return 0, err
	}
	pF, err := c.cfg.Dev.Create(pairsOut)
	if err != nil {
		return 0, err
	}
	n2oF, err := c.cfg.Dev.Create(g.prefix + suffixNew2Old)
	if err != nil {
		return 0, err
	}
	r := storage.NewReader(inF)
	ew := storage.NewWriter(eF)
	pw := storage.NewWriter(pF)
	nw := storage.NewWriter(n2oF)

	nextID := -1 // last assigned new ID
	var curSrc graph.VertexID
	var curDeg uint32
	var edgeOff int64
	var bytesScanned int64
	for {
		rec, err := r.Next(triadBytes)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("dos: scanning triads: %w", err)
		}
		bytesScanned += triadBytes
		src := graph.VertexID(binary.LittleEndian.Uint32(rec[0:]))
		dst := binary.LittleEndian.Uint32(rec[4:])
		deg := binary.LittleEndian.Uint32(rec[8:])
		if nextID < 0 || src != curSrc {
			nextID++
			curSrc = src
			// New bucket whenever the degree changes. Triads
			// arrive in strictly descending degree order.
			if len(g.Buckets) == 0 || g.Buckets[len(g.Buckets)-1].Degree != deg {
				g.Buckets = append(g.Buckets, Bucket{
					Degree:   deg,
					FirstID:  graph.VertexID(nextID),
					FirstOff: edgeOff,
				})
			}
			curDeg = deg
			// Map records.
			if err := putPair(pw, uint32(src), uint32(nextID)); err != nil {
				return 0, err
			}
			if err := putID(nw, uint32(src)); err != nil {
				return 0, err
			}
			edgeOff += int64(curDeg)
		}
		if err := putPair(ew, uint32(nextID), dst); err != nil {
			return 0, err
		}
	}
	c.charge(bytesScanned)
	if err := ew.Flush(); err != nil {
		return 0, err
	}
	if err := pw.Flush(); err != nil {
		return 0, err
	}
	if err := nw.Flush(); err != nil {
		return 0, err
	}
	return nextID + 1, nil
}

// pairStream iterates (a, b) u32 pair records.
type pairStream struct {
	r    *storage.Reader
	a, b uint32
	done bool
}

func newPairStream(dev *storage.Device, name string) (*pairStream, error) {
	f, err := dev.Open(name)
	if err != nil {
		return nil, err
	}
	s := &pairStream{r: storage.NewReader(f)}
	return s, s.advance()
}

func (s *pairStream) advance() error {
	rec, err := s.r.Next(8)
	if err == io.EOF {
		s.done = true
		return nil
	}
	if err != nil {
		return err
	}
	s.a = binary.LittleEndian.Uint32(rec[0:])
	s.b = binary.LittleEndian.Uint32(rec[4:])
	return nil
}

// relabelDestinations merge-joins dst-sorted edges with the old-sorted ID
// map. Destinations absent from the map have no out-edges; they are
// assigned the next new IDs (after all positive-degree vertices) in
// ascending old-ID order, exactly once each, and recorded in zeroPairs.
func (c *converter) relabelDestinations(byDst, pairsByOld, edgesOut, zeroPairs string, numPositive int) (int, error) {
	dev := c.cfg.Dev
	inF, err := dev.Open(byDst)
	if err != nil {
		return 0, err
	}
	m, err := newPairStream(dev, pairsByOld)
	if err != nil {
		return 0, err
	}
	eF, err := dev.Create(edgesOut)
	if err != nil {
		return 0, err
	}
	zF, err := dev.Create(zeroPairs)
	if err != nil {
		return 0, err
	}
	r := storage.NewReader(inF)
	ew := storage.NewWriter(eF)
	zw := storage.NewWriter(zF)

	numZero := 0
	var lastDst uint32
	var lastNew uint32
	haveLast := false
	var bytesScanned int64
	for {
		rec, err := r.Next(graph.EdgeBytes)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("dos: scanning dst-sorted edges: %w", err)
		}
		bytesScanned += graph.EdgeBytes
		newSrc := binary.LittleEndian.Uint32(rec[0:])
		dst := binary.LittleEndian.Uint32(rec[4:])
		if !haveLast || dst != lastDst {
			// Advance the map to dst.
			for !m.done && m.a < dst {
				if err := m.advance(); err != nil {
					return 0, err
				}
			}
			if !m.done && m.a == dst {
				lastNew = m.b
			} else {
				// Zero-out-degree vertex: assign the next ID.
				lastNew = uint32(numPositive + numZero)
				numZero++
				if err := putPair(zw, dst, lastNew); err != nil {
					return 0, err
				}
			}
			lastDst = dst
			haveLast = true
		}
		if err := putPair(ew, newSrc, lastNew); err != nil {
			return 0, err
		}
	}
	c.charge(bytesScanned)
	if err := ew.Flush(); err != nil {
		return 0, err
	}
	return numZero, zw.Flush()
}

// emitMaps merges the positive-degree and zero-degree (old, new) streams
// (both sorted by old ID) into the dense old→new file, and appends the
// zero-degree old IDs to the new→old file (their new IDs are assigned in
// ascending old-ID order, so appending preserves new-ID order).
func (c *converter) emitMaps(pairsByOld, zeroPairs string, g *Graph) error {
	dev := c.cfg.Dev
	a, err := newPairStream(dev, pairsByOld)
	if err != nil {
		return err
	}
	b, err := newPairStream(dev, zeroPairs)
	if err != nil {
		return err
	}
	oF, err := dev.Create(g.prefix + suffixOld2New)
	if err != nil {
		return err
	}
	n2oF, err := dev.Open(g.prefix + suffixNew2Old)
	if err != nil {
		return err
	}
	ow := storage.NewWriter(oF)
	nw := storage.NewWriterAt(n2oF, n2oF.Size())

	next := uint32(0) // next old ID to emit
	emitGapsTo := func(old uint32) error {
		for ; next < old; next++ {
			if err := putID(ow, uint32(graph.NoVertex)); err != nil {
				return err
			}
		}
		return nil
	}
	emit := func(old, newID uint32, zero bool) error {
		if err := emitGapsTo(old); err != nil {
			return err
		}
		if err := putID(ow, newID); err != nil {
			return err
		}
		next = old + 1
		if zero {
			if err := putID(nw, old); err != nil {
				return err
			}
		}
		return nil
	}
	for !a.done || !b.done {
		switch {
		case b.done || (!a.done && a.a < b.a):
			if err := emit(a.a, a.b, false); err != nil {
				return err
			}
			if err := a.advance(); err != nil {
				return err
			}
		default:
			if err := emit(b.a, b.b, true); err != nil {
				return err
			}
			if err := b.advance(); err != nil {
				return err
			}
		}
	}
	if err := emitGapsTo(uint32(g.MaxOldID) + 1); err != nil {
		return err
	}
	if err := ow.Flush(); err != nil {
		return err
	}
	return nw.Flush()
}

// emitEdges strips sources from the final src-sorted edge file, leaving
// the packed adjacency entries, and validates per-vertex counts against
// the bucket table.
func (c *converter) emitEdges(finalSorted string, g *Graph) error {
	dev := c.cfg.Dev
	inF, err := dev.Open(finalSorted)
	if err != nil {
		return err
	}
	outF, err := dev.Create(g.EdgesFile())
	if err != nil {
		return err
	}
	r := storage.NewReader(inF)
	w := storage.NewWriter(outF)
	var entries int64
	var prevSrc uint32
	for {
		rec, err := r.Next(graph.EdgeBytes)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("dos: emitting edges: %w", err)
		}
		src := binary.LittleEndian.Uint32(rec[0:])
		if src < prevSrc {
			return fmt.Errorf("dos: final edges not sorted: src %d after %d", src, prevSrc)
		}
		prevSrc = src
		if err := putID(w, binary.LittleEndian.Uint32(rec[4:])); err != nil {
			return err
		}
		entries++
	}
	if entries != g.NumEdges {
		return fmt.Errorf("dos: emitted %d entries, expected %d", entries, g.NumEdges)
	}
	c.charge(entries * graph.EdgeBytes)
	return w.Flush()
}

// emitEdgesV2 is emitEdges for the block-codec format: destinations are
// accumulated into fixed-entry blocks, each block is encoded
// independently and appended, and the byte offset of every block is
// recorded for the meta file's offset table.
func (c *converter) emitEdgesV2(finalSorted string, g *Graph) error {
	dev := c.cfg.Dev
	inF, err := dev.Open(finalSorted)
	if err != nil {
		return err
	}
	outF, err := dev.Create(g.EdgesFile())
	if err != nil {
		return err
	}
	r := storage.NewReader(inF)
	w := storage.NewWriter(outF)

	block := make([]uint32, 0, g.blockEntries)
	enc := make([]byte, 0, storage.MaxEncodedLen(int(g.blockEntries)))
	g.blockOffs = []int64{0}
	var fileOff int64
	flush := func() error {
		if len(block) == 0 {
			return nil
		}
		enc = g.codec.EncodeBlock(enc[:0], block)
		if _, err := w.Write(enc); err != nil {
			return err
		}
		fileOff += int64(len(enc))
		g.blockOffs = append(g.blockOffs, fileOff)
		block = block[:0]
		return nil
	}

	var entries int64
	var prevSrc, prevDst uint32
	for {
		rec, err := r.Next(graph.EdgeBytes)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("dos: emitting edges: %w", err)
		}
		src := binary.LittleEndian.Uint32(rec[0:])
		dst := binary.LittleEndian.Uint32(rec[4:])
		if src < prevSrc || (src == prevSrc && entries > 0 && dst < prevDst) {
			return fmt.Errorf("dos: final edges not sorted: (%d,%d) after (%d,%d)", src, dst, prevSrc, prevDst)
		}
		prevSrc, prevDst = src, dst
		block = append(block, dst)
		if int64(len(block)) == g.blockEntries {
			if err := flush(); err != nil {
				return err
			}
		}
		entries++
	}
	if err := flush(); err != nil {
		return err
	}
	if entries != g.NumEdges {
		return fmt.Errorf("dos: emitted %d entries, expected %d", entries, g.NumEdges)
	}
	// Encoding is a compute pass over every entry on top of the scan.
	c.charge(entries * (graph.EdgeBytes + EntryBytes))
	return w.Flush()
}
