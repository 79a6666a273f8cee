package graph

import (
	"fmt"
	"io"

	"graphz/internal/storage"
)

// WriteEdges stores edges as fixed-size records in the named device file,
// the raw edge-list format every preprocessing pipeline starts from.
func WriteEdges(dev *storage.Device, name string, edges []Edge) error {
	f, err := dev.Create(name)
	if err != nil {
		return err
	}
	w := storage.NewWriter(f)
	var buf [EdgeBytes]byte
	for _, e := range edges {
		PutEdge(buf[:], e)
		if _, err := w.Write(buf[:]); err != nil {
			return fmt.Errorf("graph: writing edges to %q: %w", name, err)
		}
	}
	return w.Flush()
}

// ReadEdges loads all edges from the named device file.
func ReadEdges(dev *storage.Device, name string) ([]Edge, error) {
	f, err := dev.Open(name)
	if err != nil {
		return nil, err
	}
	size := f.Size()
	if size%EdgeBytes != 0 {
		return nil, fmt.Errorf("graph: %q size %d is not a multiple of %d", name, size, EdgeBytes)
	}
	edges := make([]Edge, 0, size/EdgeBytes)
	s := NewEdgeScanner(f)
	for s.Scan() {
		edges = append(edges, s.Edge())
	}
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edges from %q: %w", name, err)
	}
	return edges, nil
}

// EdgeScanner streams edges from a device file without loading them all,
// the access pattern out-of-core preprocessing uses. It takes a block's
// records at a time from its Reader (storage.Reader.Next) and decodes each
// where it lies in the block buffer, issuing the device reads a ReadFull
// per record would.
type EdgeScanner struct {
	r    *storage.Reader
	recs []byte // the current block's records not yet scanned
	cur  Edge
	err  error
}

// NewEdgeScanner returns a scanner over the whole file.
func NewEdgeScanner(f *storage.File) *EdgeScanner {
	return &EdgeScanner{r: storage.NewReader(f)}
}

// Scan advances to the next edge, returning false at EOF or error.
func (s *EdgeScanner) Scan() bool {
	if len(s.recs) == 0 && !s.nextBlock() {
		return false
	}
	s.cur = GetEdge(s.recs)
	s.recs = s.recs[EdgeBytes:]
	return true
}

// nextBlock takes the whole records of the Reader's next block as one
// view. Blocks start at multiples of DefaultBlockSize, a multiple of
// EdgeBytes, so no record straddles two; only a torn file's tail is less
// than a record, which Next reports as io.ErrUnexpectedEOF.
func (s *EdgeScanner) nextBlock() bool {
	n := min(s.r.Remaining(), storage.DefaultBlockSize) / EdgeBytes * EdgeBytes
	recs, err := s.r.Next(int(max(n, EdgeBytes)))
	if err != nil {
		if err != io.EOF {
			s.err = err
		}
		return false
	}
	s.recs = recs
	return true
}

// Edge returns the current edge.
func (s *EdgeScanner) Edge() Edge { return s.cur }

// Err returns the first non-EOF error encountered: a device error, or
// io.ErrUnexpectedEOF for a file that ends inside a record.
func (s *EdgeScanner) Err() error { return s.err }

// Extent scans an edge file once for the largest vertex ID its edges
// name, as source or destination, and for its edge count. An empty file
// has extent (0, 0).
func Extent(f *storage.File) (maxID VertexID, edges int64, err error) {
	s := NewEdgeScanner(f)
	for s.Scan() {
		e := s.Edge()
		edges++
		maxID = max(maxID, e.Src, e.Dst)
	}
	if s.Err() != nil {
		return 0, 0, fmt.Errorf("graph: scanning the extent of %q: %w", f.Name(), s.Err())
	}
	return maxID, edges, nil
}
