package core

import (
	"fmt"
	"sync"

	"graphz/internal/dos"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// Resident multi-engine sharing: the split between a graph's immutable
// state and an engine run's private state.
//
// Everything a run needs from the graph — the bucket index, the v2
// per-block offset table, the adjacency bytes themselves — is immutable
// after dos.Load/Convert, so N concurrent engines can share one resident
// copy. Everything else (vertex states, the active bitmap, message
// buffers, spill files) is owned by exactly one run. SharedGraph holds
// the former; each Engine keeps the latter, reaching the shared side
// through a private Layout view (the view carries the only mutable bit
// of index access, the bucket cursor) and an Options.SharedAdjacency
// handle for the decoded-entry cache.
//
// This is what turns a one-shot CLI cost model into a serving one: the
// open/decode/warm-up work is paid once per graph, not once per job
// (docs/SERVING.md).

// SharedAdjacency is a graph's decoded adjacency, resident once and read
// by any number of concurrent engines. The first engine to touch it pays
// the fill — one pass of the Sio prefetcher over the edges file — and
// every later access (same engine or another) reads the resident entries
// in place. It is the engine's only adjacency cache: Options.SharedAdjacency
// hands an engine one owned by somebody else, and an engine handed none
// creates a private one when its own budget holds it (plan).
//
// A cache handed in through Options.SharedAdjacency is deliberately NOT
// charged against any engine's MemoryBudget: it is owned by whoever
// created it (a serving process accounts it against a server-wide budget;
// see docs/SERVING.md, "Budget math"). Bytes reports the resident size
// for that accounting.
type SharedAdjacency struct {
	dev     *storage.Device
	adj     storage.BlockLayout
	file    string
	entries int64

	mu   sync.Mutex
	data []graph.VertexID // decoded entries; nil until the fill
}

// NewSharedAdjacency prepares a shared adjacency cache for the layout's
// edges file. Nothing is read until an engine first needs entries.
func NewSharedAdjacency(l Layout) *SharedAdjacency {
	return &SharedAdjacency{
		dev:     l.Device(),
		adj:     l.Adj(),
		file:    l.EdgesFile(),
		entries: l.NumEdges(),
	}
}

// Bytes returns the resident size of the cache once filled: four bytes
// per adjacency entry, decoded. Use it for owner-side budget accounting.
func (s *SharedAdjacency) Bytes() int64 { return s.entries * 4 }

// Filled reports whether the adjacency is resident yet.
func (s *SharedAdjacency) Filled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data != nil
}

// load returns the whole file's decoded entries, filling the cache on
// first use: the fill is the Sio prefetcher over the full entry range,
// read to completion into the resident slice, so it reads and decodes
// exactly as a streaming run does. hit reports that this call found the
// entries already resident. ps, when non-nil, receives the fill's
// pipeline counters; it is only consulted by the filling call.
func (s *SharedAdjacency) load(ps *pipeStats) (data []graph.VertexID, hit bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data != nil {
		return s.data, true, nil
	}
	src, err := openEntryStream(s.dev, s.adj, s.file, []entryRange{{start: 0, end: s.entries}}, ps)
	if err != nil {
		return nil, false, err
	}
	defer src.stop()
	data = make([]graph.VertexID, s.entries)
	for n := 0; n < len(data); {
		w, err := src.window(int64(n), 1)
		if err != nil {
			return nil, false, fmt.Errorf("core: filling resident adjacency from %q: %w", s.file, err)
		}
		n += copy(data[n:], w)
	}
	s.data = data
	return data, false, nil
}

// matches verifies the cache belongs to the same adjacency the layout
// describes — same device, same edges file, same entry count.
func (s *SharedAdjacency) matches(l Layout) bool {
	return s.dev == l.Device() && s.file == l.EdgesFile() && s.entries == l.NumEdges()
}

// SharedGraph bundles one degree-ordered graph's immutable state for
// concurrent engines: the dos.Graph (bucket index, offset tables, device
// files) plus one SharedAdjacency. Create it once per resident graph;
// hand each run a fresh View and the Adjacency handle:
//
//	sg := core.NewSharedGraph(g)
//	opts.SharedAdjacency = sg.Adjacency()
//	eng, err := core.New(sg.View(), prog, vc, mc, opts)
//
// Each engine must still use a distinct Options.Name so their runtime
// files (vertex states, message spills) do not collide on the device.
type SharedGraph struct {
	g   *dos.Graph
	adj *SharedAdjacency
}

// NewSharedGraph wraps a loaded degree-ordered graph for sharing.
func NewSharedGraph(g *dos.Graph) *SharedGraph {
	return &SharedGraph{g: g, adj: NewSharedAdjacency(DOSLayout(g))}
}

// View returns a fresh Layout over the shared graph. Views are cheap and
// single-engine: each carries its own bucket cursor, the one piece of
// index-access state that is not read-only.
func (s *SharedGraph) View() Layout { return DOSLayout(s.g) }

// Adjacency returns the graph's shared decoded-adjacency cache.
func (s *SharedGraph) Adjacency() *SharedAdjacency { return s.adj }

// Graph returns the underlying degree-ordered graph.
func (s *SharedGraph) Graph() *dos.Graph { return s.g }

// ResidentBytes is the memory the shared side pins: the bucket index,
// the v2 block-offset table, and the adjacency cache (counted whether or
// not it has been filled yet — an admission controller must reserve for
// it up front, not discover it mid-run).
func (s *SharedGraph) ResidentBytes() int64 {
	return s.g.IndexBytes() + s.g.BlockTableBytes() + s.adj.Bytes()
}
