package core

import (
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// Batch adjacency dispatch for the Worker stage. The Worker never pulls
// adjacency an entry at a time: its entrySource hands out windows — a
// whole decoded block's worth of entries from the prefetcher, the whole
// adjacency when it is resident — and batchReader serves each vertex's
// Update a sub-slice of the current one: one interface call per window
// (not per vertex, let alone per edge) and zero per-vertex allocations.
// Entries are addressed by absolute offset, which is all the engine's
// ordering guarantee (and byte-identity across codecs and selective mode)
// needs: a full scan asks for consecutive spans, a sparse
// schedule hops, and neither copies what it does not use.

// workerBatchEntries sizes the entry streams' pooled entry buffers: one
// Sio block's worth of entries, so one buffer holds everything a block
// decode produces.
const workerBatchEntries = storage.DefaultBlockSize / 4

// batchReader serves per-vertex adjacency slices out of its source's
// current window. Not safe for concurrent use; the Worker owns it.
type batchReader struct {
	src entrySource
	w   []graph.VertexID // entries [at, at+len(w)), as src last handed them out
	at  int64
}

// adj returns the deg adjacency entries at absolute offset off — one
// vertex's out-neighbors. Offsets must not descend from call to call. The
// slice aliases the source's memory and is valid until the next adj
// call; the caller must not retain or mutate it — the same contract the
// seed Worker's reused append slice had.
func (r *batchReader) adj(off int64, deg uint32) ([]graph.VertexID, error) {
	n := int64(deg)
	if n == 0 {
		return nil, nil
	}
	i := off - r.at
	if i < 0 || i+n > int64(len(r.w)) {
		w, err := r.src.window(off, int(n))
		if err != nil {
			return nil, err
		}
		r.w, r.at, i = w, off, 0
	}
	return r.w[i : i+n : i+n], nil
}
