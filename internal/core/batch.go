package core

import (
	"fmt"

	"graphz/internal/graph"
	"graphz/internal/storage"
)

// Batch adjacency dispatch for the Worker stage. The Worker never pulls
// adjacency an entry at a time: batchReader bulk-copies whatever its
// entrySource has already decoded into one flat reusable buffer and hands
// each vertex's Update a sub-slice of it — one interface call per block
// (not per edge), bounds checks hoisted into a single copy loop, and zero
// per-vertex allocations in steady state. Entries are served in stream
// order, which is all the engine's ordering guarantee (and byte-identity
// across worker counts, codecs, and selective mode) needs.

// workerBatchEntries sizes the Worker's flat batch buffer: one Sio
// block's worth of entries, so a single refill captures everything a
// block decode produced.
const workerBatchEntries = storage.DefaultBlockSize / 4

// batchReader adapts an entrySource to per-vertex adjacency slices
// served from a flat buffer. Not safe for concurrent use; each Worker
// (the engine goroutine, or one speculating chunk) owns its own.
type batchReader struct {
	src  entrySource
	buf  []graph.VertexID // reusable across readers; nil grows on first use
	pos  int              // first unserved entry in buf
	fill int              // first free slot in buf
}

// adj returns the vertex's next deg adjacency entries in stream order.
// The slice aliases the reader's buffer and is valid until the next
// adj call. The caller must not retain or mutate it — the same contract
// the seed Worker's reused append slice had.
func (r *batchReader) adj(deg uint32) ([]graph.VertexID, error) {
	n := int(deg)
	if n == 0 {
		return nil, nil
	}
	if r.fill-r.pos < n {
		if err := r.refill(n); err != nil {
			return nil, err
		}
	}
	out := r.buf[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return out, nil
}

// refill compacts the buffer and tops it up until n entries are
// buffered, growing the buffer when one vertex's degree exceeds it.
func (r *batchReader) refill(n int) error {
	r.fill = copy(r.buf, r.buf[r.pos:r.fill])
	r.pos = 0
	if n > len(r.buf) {
		want := 2 * len(r.buf)
		if want < n {
			want = n
		}
		if want < workerBatchEntries {
			want = workerBatchEntries
		}
		nb := make([]graph.VertexID, want)
		r.fill = copy(nb, r.buf[:r.fill])
		r.buf = nb
	}
	for r.fill < n {
		m, err := r.src.read(r.buf[r.fill:])
		if err != nil {
			return err
		}
		if m <= 0 {
			return fmt.Errorf("core: adjacency batch read returned %d entries", m)
		}
		r.fill += m
	}
	return nil
}
