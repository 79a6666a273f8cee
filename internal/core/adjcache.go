package core

// In-memory adjacency caching, an extension the paper lists as future
// work ("our current implementation does not have many in-memory
// optimizations", Section VI-E): iterative algorithms re-read the whole
// adjacency file every iteration, so when the graph fits the leftover
// memory budget the engine keeps the decoded adjacency resident after one
// pass and serves every later partition and iteration from memory,
// eliminating the per-iteration edge IO that dominates small-graph runs.
//
// There is one cache type, SharedAdjacency (shared.go), and one place that
// decides whether a run has one, plan (engine.go). This file is the
// engine's side of it: filling it, and choosing between the resident
// entries and the Sio prefetcher.

// ensureResident makes the cached adjacency available to this run before
// a partition's Worker starts, and marks the partition a cache hit when
// that took no fill (the fill happens once per cache: in this engine's
// first partition, or in another engine sharing it). Engine goroutine
// only — ps.cacheHit is not synchronized.
func (e *Engine[V, M]) ensureResident(ps *pipeStats) error {
	hit := e.resident.data != nil
	if !hit {
		var err error
		if e.resident.data, hit, err = e.adjCache.load(ps); err != nil {
			return err
		}
	}
	if hit && ps != nil {
		ps.cacheHit = true
	}
	return nil
}

// adjSource returns the adjacency source for the given ascending entry
// ranges: the resident entries when cached (ensureResident has run; they
// need no ranges), or one Sio prefetcher.
func (e *Engine[V, M]) adjSource(ranges []entryRange, ps *pipeStats) (entrySource, error) {
	if e.adjCache != nil {
		return &e.resident, nil
	}
	return openEntryStream(e.dev, e.adj, e.layout.EdgesFile(), ranges, ps)
}
