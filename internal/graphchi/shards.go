// Package graphchi implements a GraphChi-class baseline: the
// vertex-centric, asynchronous, out-of-core model of Kyrola et al. that
// the paper compares against. The graph is split into P intervals of the
// natural (unrelabeled) vertex ID space; shard p holds every edge whose
// destination is in interval p, sorted by source, together with a
// per-edge value. One iteration processes intervals in order: interval
// p's shard is loaded whole (the in-edges), a sliding window over every
// other shard supplies the out-edges, vertices are updated in ID order,
// and modified edge values are written back — the Parallel Sliding
// Windows algorithm. Communication happens through edge values (the
// static-message design GraphZ's dynamic messages replace), and the
// vertex degree index costs 8 bytes per vertex, which is why this model
// cannot run the paper's xlarge graph.
package graphchi

import (
	"encoding/binary"
	"fmt"

	"graphz/internal/extsort"
	"graphz/internal/graph"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// DegreeEntryBytes is the per-vertex index cost: in-degree and out-degree.
const DegreeEntryBytes = 8

// Shards is a sharded graph on a device.
type Shards struct {
	dev    *storage.Device
	prefix string

	NumVertices int // natural dense ID space: maxID+1
	NumEdges    int64
	EdgeValSize int
	// IntervalStart[p] is the first vertex of interval p;
	// IntervalStart[P] == NumVertices.
	IntervalStart []graph.VertexID
	// ShardEntries[p] is the edge count of shard p.
	ShardEntries []int64
}

// NumShards returns the shard count P.
func (s *Shards) NumShards() int { return len(s.ShardEntries) }

// Device returns the device the shards live on.
func (s *Shards) Device() *storage.Device { return s.dev }

// ShardFile names shard p's file.
func (s *Shards) ShardFile(p int) string { return fmt.Sprintf("%s.chi.shard%d", s.prefix, p) }

// DegreeFile names the per-vertex degree index file.
func (s *Shards) DegreeFile() string { return s.prefix + ".chi.deg" }

func (s *Shards) metaFile() string { return s.prefix + ".chi.meta" }

// IndexBytes is the resident size of the vertex degree index.
func (s *Shards) IndexBytes() int64 { return int64(s.NumVertices) * DegreeEntryBytes }

// recBytes is the on-disk size of one shard record.
func (s *Shards) recBytes() int { return 8 + s.EdgeValSize }

// ShardConfig parameterizes sharding.
type ShardConfig struct {
	Dev   *storage.Device
	Clock *sim.Clock
	// MemoryBudget bounds both the external sorts and the automatic
	// shard sizing.
	MemoryBudget int64
	// EdgeValSize is the per-edge value size the program will use.
	EdgeValSize int
	// NumShards overrides automatic shard-count selection when > 0.
	NumShards int
}

// Shard converts a raw edge file into GraphChi shards. The pipeline is
// the model's standard preprocessing: compute degrees, sort by
// destination, split into intervals balancing edge counts, and sort each
// shard by source.
func Shard(cfg ShardConfig, edgeFile, prefix string) (*Shards, error) {
	if cfg.EdgeValSize < 0 {
		return nil, fmt.Errorf("graphchi: negative edge value size")
	}
	if cfg.MemoryBudget < extsort.MinMemoryBudget {
		cfg.MemoryBudget = extsort.MinMemoryBudget
	}
	dev := cfg.Dev
	s := &Shards{dev: dev, prefix: prefix, EdgeValSize: cfg.EdgeValSize}

	srcKey := func(rec []byte) uint64 {
		return uint64(binary.LittleEndian.Uint32(rec))
	}
	dstKey := func(rec []byte) uint64 {
		return uint64(binary.LittleEndian.Uint32(rec[4:]))
	}
	sortCfg := func(tag string) extsort.Config {
		return extsort.Config{
			Dev:          dev,
			Clock:        cfg.Clock,
			RecordSize:   graph.EdgeBytes,
			MemoryBudget: cfg.MemoryBudget,
			TempPrefix:   prefix + ".chi.tmp." + tag + ".run",
		}
	}

	// Pass 1: sort by destination; scan for max ID, edge count, and
	// in-degrees; pick interval boundaries balancing edge counts.
	byDst := prefix + ".chi.tmp.bydst"
	c := sortCfg("bydst")
	c.Key = dstKey
	if err := extsort.Sort(c, edgeFile, byDst); err != nil {
		return nil, fmt.Errorf("graphchi: sorting by dst: %w", err)
	}
	defer dev.Remove(byDst)

	byDstF, err := dev.Open(byDst)
	if err != nil {
		return nil, err
	}
	maxID, numEdges, err := graph.Extent(byDstF)
	if err != nil {
		return nil, fmt.Errorf("graphchi: %w", err)
	}
	s.NumEdges = numEdges
	if numEdges > 0 || maxID > 0 {
		s.NumVertices = int(maxID) + 1
	}

	nShards := cfg.NumShards
	if nShards <= 0 {
		nShards = autoShards(s, cfg.MemoryBudget)
	}

	// Pass 2: split the dst-sorted edges into nShards interval files
	// at destination boundaries.
	parts, starts, err := splitByDst(dev, byDstF, prefix, numEdges, nShards, graph.VertexID(s.NumVertices))
	if err != nil {
		return nil, err
	}
	s.IntervalStart = starts

	// Pass 3: sort each part by source and emit the shard with zeroed
	// edge values.
	for p, part := range parts {
		sorted := fmt.Sprintf("%s.chi.tmp.sorted%d", prefix, p)
		c := sortCfg(fmt.Sprintf("shard%d", p))
		c.Key = srcKey
		if err := extsort.Sort(c, part, sorted); err != nil {
			return nil, fmt.Errorf("graphchi: sorting shard %d: %w", p, err)
		}
		dev.Remove(part)
		n, err := emitShard(dev, sorted, s.ShardFile(p), s.EdgeValSize)
		if err != nil {
			return nil, err
		}
		dev.Remove(sorted)
		s.ShardEntries = append(s.ShardEntries, n)
	}

	// Pass 4: degrees. In-degrees from the dst-sorted order would need
	// another pass; instead sort by src for out-degrees and rescan the
	// shards (already grouped by interval) for in-degrees.
	if err := writeDegrees(dev, cfg, s, edgeFile); err != nil {
		return nil, err
	}
	cfg.Clock.ComputeBytes(3 * numEdges * graph.EdgeBytes)
	if err := s.writeMeta(); err != nil {
		return nil, err
	}
	return s, nil
}

// autoShards sizes shards so one shard plus its interval's vertex states
// (assumed 8 B each) fits in roughly half the budget.
func autoShards(s *Shards, budget int64) int {
	per := budget / 2
	if per <= 0 {
		per = budget
	}
	total := s.NumEdges*int64(s.recBytes()) + int64(s.NumVertices)*8
	n := int((total + per - 1) / per)
	if n < 1 {
		n = 1
	}
	return n
}

// splitByDst cuts the dst-sorted edge stream into nShards parts of
// roughly equal edge count, never splitting a destination across parts.
// It returns the part files and the interval start IDs.
func splitByDst(dev *storage.Device, byDst *storage.File, prefix string, numEdges int64, nShards int, numVertices graph.VertexID) ([]string, []graph.VertexID, error) {
	target := numEdges / int64(nShards)
	if target < 1 {
		target = 1
	}

	var parts []string
	var starts []graph.VertexID
	starts = append(starts, 0)

	newPart := func() (*storage.Writer, error) {
		name := fmt.Sprintf("%s.chi.tmp.part%d", prefix, len(parts))
		pf, err := dev.Create(name)
		if err != nil {
			return nil, err
		}
		parts = append(parts, name)
		return storage.NewWriter(pf), nil
	}
	w, err := newPart()
	if err != nil {
		return nil, nil, err
	}
	var inPart int64
	var lastDst graph.VertexID
	havePrev := false
	var buf [graph.EdgeBytes]byte
	sc := graph.NewEdgeScanner(byDst)
	for sc.Scan() {
		e := sc.Edge()
		// Cut at a destination boundary once the part is full, as
		// long as more shards are allowed.
		if havePrev && e.Dst != lastDst && inPart >= target && len(parts) < nShards {
			if err := w.Flush(); err != nil {
				return nil, nil, err
			}
			starts = append(starts, e.Dst)
			w, err = newPart()
			if err != nil {
				return nil, nil, err
			}
			inPart = 0
		}
		graph.PutEdge(buf[:], e)
		if _, err := w.Write(buf[:]); err != nil {
			return nil, nil, err
		}
		inPart++
		lastDst = e.Dst
		havePrev = true
	}
	if sc.Err() != nil {
		return nil, nil, sc.Err()
	}
	if err := w.Flush(); err != nil {
		return nil, nil, err
	}
	// Pad out empty trailing shards so the count is always nShards.
	for len(parts) < nShards {
		w, err := newPart()
		if err != nil {
			return nil, nil, err
		}
		if err := w.Flush(); err != nil {
			return nil, nil, err
		}
		starts = append(starts, numVertices)
	}
	starts = append(starts, numVertices)
	return parts, starts, nil
}

// emitShard rewrites src-sorted raw edges as shard records with zeroed
// edge values, returning the entry count.
func emitShard(dev *storage.Device, in, out string, evalSize int) (int64, error) {
	inF, err := dev.Open(in)
	if err != nil {
		return 0, err
	}
	outF, err := dev.Create(out)
	if err != nil {
		return 0, err
	}
	sc := graph.NewEdgeScanner(inF)
	w := storage.NewWriter(outF)
	rec := make([]byte, 8+evalSize) // the edge value stays zero
	var n int64
	for sc.Scan() {
		graph.PutEdge(rec, sc.Edge())
		if _, err := w.Write(rec); err != nil {
			return 0, err
		}
		n++
	}
	if sc.Err() != nil {
		return 0, sc.Err()
	}
	return n, w.Flush()
}

// writeDegrees computes per-vertex (in, out) degrees with one src-sort
// pass and one scan over the shards, and writes the degree index file.
// The degree arrays are built densely on the host during preprocessing
// (as GraphChi's sharder does); at *run* time the index must fit the
// engine's memory budget or the run fails.
func writeDegrees(dev *storage.Device, cfg ShardConfig, s *Shards, edgeFile string) error {
	inDeg := make([]uint32, s.NumVertices)
	outDeg := make([]uint32, s.NumVertices)
	f, err := dev.Open(edgeFile)
	if err != nil {
		return err
	}
	sc := graph.NewEdgeScanner(f)
	for sc.Scan() {
		outDeg[sc.Edge().Src]++
		inDeg[sc.Edge().Dst]++
	}
	if sc.Err() != nil {
		return sc.Err()
	}
	df, err := dev.Create(s.DegreeFile())
	if err != nil {
		return err
	}
	w := storage.NewWriter(df)
	var rec [DegreeEntryBytes]byte
	for v := 0; v < s.NumVertices; v++ {
		binary.LittleEndian.PutUint32(rec[:4], inDeg[v])
		binary.LittleEndian.PutUint32(rec[4:], outDeg[v])
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
	}
	return w.Flush()
}

const metaMagic = 0x494843_47534f44

func (s *Shards) writeMeta() error {
	n := len(s.ShardEntries)
	buf := make([]byte, 40+(n+1)*4+n*8)
	binary.LittleEndian.PutUint64(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(s.NumVertices))
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.NumEdges))
	binary.LittleEndian.PutUint64(buf[24:], uint64(s.EdgeValSize))
	binary.LittleEndian.PutUint64(buf[32:], uint64(n))
	o := 40
	for _, st := range s.IntervalStart {
		binary.LittleEndian.PutUint32(buf[o:], uint32(st))
		o += 4
	}
	for _, c := range s.ShardEntries {
		binary.LittleEndian.PutUint64(buf[o:], uint64(c))
		o += 8
	}
	return storage.WriteAll(s.dev, s.metaFile(), buf)
}

// LoadShards opens previously built shards by prefix.
func LoadShards(dev *storage.Device, prefix string) (*Shards, error) {
	buf, err := storage.ReadAllFile(dev, prefix+".chi.meta")
	if err != nil {
		return nil, fmt.Errorf("graphchi: loading meta: %w", err)
	}
	if len(buf) < 40 || binary.LittleEndian.Uint64(buf) != metaMagic {
		return nil, fmt.Errorf("graphchi: %q is not a shards meta file", prefix)
	}
	s := &Shards{
		dev:         dev,
		prefix:      prefix,
		NumVertices: int(binary.LittleEndian.Uint64(buf[8:])),
		NumEdges:    int64(binary.LittleEndian.Uint64(buf[16:])),
		EdgeValSize: int(binary.LittleEndian.Uint64(buf[24:])),
	}
	n := int(binary.LittleEndian.Uint64(buf[32:]))
	if len(buf) != 40+(n+1)*4+n*8 {
		return nil, fmt.Errorf("graphchi: meta file truncated")
	}
	o := 40
	s.IntervalStart = make([]graph.VertexID, n+1)
	for i := range s.IntervalStart {
		s.IntervalStart[i] = graph.VertexID(binary.LittleEndian.Uint32(buf[o:]))
		o += 4
	}
	s.ShardEntries = make([]int64, n)
	for i := range s.ShardEntries {
		s.ShardEntries[i] = int64(binary.LittleEndian.Uint64(buf[o:]))
		o += 8
	}
	return s, nil
}
