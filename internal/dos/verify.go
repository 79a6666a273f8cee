package dos

import (
	"fmt"
	"io"

	"encoding/binary"

	"graphz/internal/graph"
	"graphz/internal/storage"
)

// Violation is the typed error Verify returns for every invariant
// failure. It pins the failure to a device file, a byte offset within
// it, and — when one is implicated — the bucket index, so a corrupted
// graph can be repaired (or its corruption diagnosed) without re-deriving
// the layout arithmetic by hand.
type Violation struct {
	File   string // device file name the violation was observed in
	Offset int64  // byte offset within File
	Bucket int    // implicated bucket index, or -1 when none is
	Detail string
	Err    error // underlying error (e.g. a *storage.CodecError), may be nil
}

func (v *Violation) Error() string {
	where := fmt.Sprintf("%s@%d", v.File, v.Offset)
	if v.Bucket >= 0 {
		where += fmt.Sprintf(" (bucket %d)", v.Bucket)
	}
	return fmt.Sprintf("dos: verify %s: %s", where, v.Detail)
}

func (v *Violation) Unwrap() error { return v.Err }

// metaHeaderBytes returns the size of the graph's meta file header, i.e.
// the byte offset of bucket 0 within the meta file.
func (g *Graph) metaHeaderBytes() int64 {
	if g.Version() == 2 {
		return metaHeaderV2
	}
	return metaHeaderV1
}

// bucketByte returns the byte offset of bucket i in the meta file.
func (g *Graph) bucketByte(i int) int64 {
	return g.metaHeaderBytes() + int64(i)*BucketBytes
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// violate builds a *Violation against one of g's files.
func violate(file string, off int64, bucket int, format string, args ...any) error {
	return &Violation{File: file, Offset: off, Bucket: bucket, Detail: fmt.Sprintf(format, args...)}
}

// Verify checks a converted graph's structural invariants, streaming the
// on-device files once. It validates what the offset arithmetic silently
// assumes, so a corrupted or hand-edited graph fails loudly instead of
// returning wrong adjacencies. Every failure is reported as a *Violation
// carrying the file, byte offset, and implicated bucket index:
//
//   - buckets are ordered: FirstID strictly increasing, Degree strictly
//     decreasing, FirstOff consistent with the degree arithmetic;
//   - the edge file holds exactly NumEdges in-range destination entries
//     (decoding every block on a v2 graph, whose offset table must also
//     be monotone and end at the file size);
//   - the new→old map has NumVertices entries and the old→new map inverts
//     it, with every non-vertex old ID marked NoVertex;
//   - the summed bucket degrees equal NumEdges.
func Verify(g *Graph) error {
	if err := verifyBuckets(g); err != nil {
		return err
	}
	if err := verifyEdges(g); err != nil {
		return err
	}
	return verifyMaps(g)
}

func verifyBuckets(g *Graph) error {
	meta := g.MetaFile()
	if g.NumVertices == 0 {
		if len(g.Buckets) != 0 || g.NumEdges != 0 {
			return violate(meta, 8, -1, "empty graph with %d buckets, %d edges", len(g.Buckets), g.NumEdges)
		}
		return nil
	}
	if len(g.Buckets) == 0 {
		return violate(meta, 28, -1, "%d vertices but no buckets", g.NumVertices)
	}
	if g.Buckets[0].FirstID != 0 || g.Buckets[0].FirstOff != 0 {
		return violate(meta, g.bucketByte(0), 0, "first bucket starts at id %d, offset %d",
			g.Buckets[0].FirstID, g.Buckets[0].FirstOff)
	}
	var total int64
	for i, b := range g.Buckets {
		end := graph.VertexID(g.NumVertices)
		if i+1 < len(g.Buckets) {
			next := g.Buckets[i+1]
			if next.FirstID <= b.FirstID {
				return violate(meta, g.bucketByte(i+1), i+1, "FirstID %d not increasing", next.FirstID)
			}
			if next.Degree >= b.Degree {
				return violate(meta, g.bucketByte(i+1), i+1, "degree %d not decreasing", next.Degree)
			}
			end = next.FirstID
			wantOff := b.FirstOff + int64(end-b.FirstID)*int64(b.Degree)
			if next.FirstOff != wantOff {
				return violate(meta, g.bucketByte(i+1), i+1, "FirstOff %d, arithmetic says %d",
					next.FirstOff, wantOff)
			}
		}
		total += int64(end-b.FirstID) * int64(b.Degree)
	}
	if total != g.NumEdges {
		// Offset 16 is the meta NumEdges field the sum is checked against.
		return violate(meta, 16, len(g.Buckets)-1, "bucket degrees sum to %d, NumEdges is %d", total, g.NumEdges)
	}
	return nil
}

// bucketCursor resolves ascending edge-entry offsets to bucket indexes in
// amortized O(1) — verifyEdges streams entries in order, so the implicated
// bucket only ever moves forward.
type bucketCursor struct {
	g *Graph
	i int
}

func (c *bucketCursor) at(entry int64) int {
	if len(c.g.Buckets) == 0 {
		return -1
	}
	for c.i+1 < len(c.g.Buckets) && c.g.Buckets[c.i+1].FirstOff <= entry {
		c.i++
	}
	return c.i
}

func verifyEdges(g *Graph) error {
	edges := g.EdgesFile()
	f, err := g.dev.Open(edges)
	if err != nil {
		return err
	}
	if g.Version() == 2 {
		offs := g.blockOffs
		if offs[0] != 0 {
			return violate(g.MetaFile(), g.blockTableByte(0), -1, "block offset table starts at %d, want 0", offs[0])
		}
		for i := 1; i < len(offs); i++ {
			if offs[i] < offs[i-1] {
				return violate(g.MetaFile(), g.blockTableByte(i), -1,
					"block offset table not monotone: %d after %d", offs[i], offs[i-1])
			}
		}
		if last := offs[len(offs)-1]; f.Size() != last {
			return violate(edges, min64(f.Size(), last), -1,
				"edge file has %d bytes, block offset table ends at %d", f.Size(), last)
		}
	} else if f.Size() != g.NumEdges*EntryBytes {
		return violate(edges, min64(f.Size(), g.NumEdges*EntryBytes), -1,
			"edge file has %d bytes, want %d", f.Size(), g.NumEdges*EntryBytes)
	}
	r, err := g.Entries(0, g.NumEdges)
	if err != nil {
		return err
	}
	cur := &bucketCursor{g: g}
	for i := int64(0); i < g.NumEdges; i++ {
		byteOff := r.ByteOffset()
		dst, err := r.Next()
		if err != nil {
			return &Violation{File: edges, Offset: byteOff, Bucket: cur.at(i),
				Detail: fmt.Sprintf("edge file truncated or undecodable at entry %d: %v", i, err), Err: err}
		}
		if int(dst) >= g.NumVertices {
			return violate(edges, byteOff, cur.at(i), "entry %d destination %d out of range [0,%d)",
				i, dst, g.NumVertices)
		}
	}
	return nil
}

// blockTableByte returns the byte offset of block-offset-table entry i in
// the v2 meta file.
func (g *Graph) blockTableByte(i int) int64 {
	return g.bucketByte(len(g.Buckets)) + int64(i)*8
}

func verifyMaps(g *Graph) error {
	n2oName := g.prefix + suffixNew2Old
	o2nName := g.prefix + suffixOld2New
	n2oF, err := g.dev.Open(n2oName)
	if err != nil {
		return err
	}
	if n2oF.Size() != int64(g.NumVertices)*4 {
		return violate(n2oName, min64(n2oF.Size(), int64(g.NumVertices)*4), -1,
			"new2old has %d bytes, want %d", n2oF.Size(), g.NumVertices*4)
	}
	o2nF, err := g.dev.Open(o2nName)
	if err != nil {
		return err
	}
	wantOld := int64(g.MaxOldID) + 1
	if g.NumVertices == 0 {
		wantOld = o2nF.Size() / 4 // empty graphs have a degenerate map
	}
	if o2nF.Size() != wantOld*4 {
		return violate(o2nName, min64(o2nF.Size(), wantOld*4), -1,
			"old2new has %d bytes, want %d", o2nF.Size(), wantOld*4)
	}

	// Stream old2new, counting vertices and checking ranges; then
	// stream new2old verifying the inverse through point reads of
	// old2new (block reads keep this O(V) with buffered IO).
	r := storage.NewReader(o2nF)
	count := 0
	var old int64
	for ; ; old++ {
		rec, err := r.Next(4)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		newID := graph.VertexID(binary.LittleEndian.Uint32(rec))
		if newID == graph.NoVertex {
			continue
		}
		if int(newID) >= g.NumVertices {
			return violate(o2nName, old*4, -1, "old2new[%d] maps to %d, out of range [0,%d)",
				old, newID, g.NumVertices)
		}
		count++
	}
	if count != g.NumVertices {
		return violate(o2nName, 0, -1, "old2new names %d vertices, want %d", count, g.NumVertices)
	}
	rn := storage.NewReader(n2oF)
	for newID := 0; newID < g.NumVertices; newID++ {
		rec, err := rn.Next(4)
		if err != nil {
			return err
		}
		bkt, _ := g.bucketOf(graph.VertexID(newID))
		old := int64(binary.LittleEndian.Uint32(rec))
		if old > int64(g.MaxOldID) {
			return violate(n2oName, int64(newID)*4, bkt,
				"new2old[%d] = %d exceeds MaxOldID %d", newID, old, g.MaxOldID)
		}
		var inv [4]byte
		if _, err := o2nF.ReadAt(inv[:], old*4); err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint32(inv[:]); got != uint32(newID) {
			return violate(n2oName, int64(newID)*4, bkt,
				"maps disagree: new2old[%d]=%d but old2new[%d]=%d", newID, old, old, got)
		}
	}
	return nil
}
