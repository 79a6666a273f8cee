// Package serve is the resident multi-tenant analytics server: it loads
// degree-ordered graphs once into the immutable shared representation
// (core.SharedGraph) and runs concurrent algorithm jobs against them,
// each job a private engine over a shared adjacency cache. The cost a
// one-shot CLI run pays per invocation — opening the graph, decoding
// blocks, warming the cache — is paid once per resident graph here,
// which is the ROADMAP's serving story (and GraphH's ALLIGATOR model:
// one shared immutable graph store, many computations).
//
// Admission is budget-driven: every job declares a memory budget, the
// server admits jobs while the sum of running budgets plus the resident
// graph bytes stays within the server-wide budget, and queues the rest
// in submission order (bounded FIFO, strict head-of-line: a large job at
// the head is never overtaken by a small one behind it). See
// docs/SERVING.md for the API and the budget math.
package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/graph"
	"graphz/internal/obs"
)

// Typed error classes the HTTP layer maps to status codes. Match with
// errors.Is.
var (
	// ErrBadRequest marks submissions the caller must fix: unknown
	// graph or algorithm, a source vertex outside the graph, a budget
	// no admission order could ever satisfy. HTTP 400.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrQueueFull reports the bounded admission queue is at capacity;
	// retry later. HTTP 503.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrNotFound reports an unknown job or graph name in the URL.
	// HTTP 404.
	ErrNotFound = errors.New("serve: not found")
)

// Config sizes the server.
type Config struct {
	// MemoryBudget is the server-wide byte budget covering the resident
	// graphs (index + block table + decoded adjacency) plus the sum of
	// running jobs' engine budgets. Required.
	MemoryBudget int64
	// DefaultJobBudget is assigned to submissions that omit a budget;
	// defaults to 1/8 of MemoryBudget.
	DefaultJobBudget int64
	// QueueLimit bounds the FIFO admission queue; defaults to 16.
	QueueLimit int
	// Reg receives the server-level metrics (job gauges, budget gauges,
	// per-job labeled series). Nil allocates a private registry.
	Reg *obs.Registry
}

// residentGraph is one loaded graph plus the ID maps the API needs:
// jobs run in degree-ordered (new) vertex-ID space, clients speak the
// input's original (old) IDs.
type residentGraph struct {
	name string
	sg   *core.SharedGraph
	n2o  []graph.VertexID // new → old
	o2n  []graph.VertexID // old → new over [0, MaxOldID]; graph.NoVertex where no vertex is
}

// newID maps a client's vertex ID into the jobs' ID space; ok is false for
// an ID outside the map or one that names no vertex (dos.Graph.OldToNew).
func (g *residentGraph) newID(old uint32) (v graph.VertexID, ok bool) {
	if int64(old) >= int64(len(g.o2n)) || g.o2n[old] == graph.NoVertex {
		return 0, false
	}
	return g.o2n[old], true
}

// Server owns the resident graphs, the job table, and the admission
// state. Create with New, add graphs with RegisterGraph, expose
// Handler() over HTTP.
type Server struct {
	cfg Config
	reg *obs.Registry

	mu       sync.Mutex
	graphs   map[string]*residentGraph
	order    []string // graph registration order
	jobs     map[string]*Job
	jobOrder []*Job // the retained jobs, in submission order
	finished []*Job // the retained terminal jobs, oldest-finished first
	queue    []*Job
	running  int
	inUse    int64 // sum of running jobs' budgets
	resident int64 // sum of registered graphs' ResidentBytes
	nextID   int

	// beforeRun, when set (tests only), is called on the job goroutine
	// after admission and before the engine starts.
	beforeRun func(*Job)
}

// New builds an empty server; register graphs before serving.
func New(cfg Config) (*Server, error) {
	if cfg.MemoryBudget <= 0 {
		return nil, fmt.Errorf("%w: server memory budget must be positive, got %d", ErrBadRequest, cfg.MemoryBudget)
	}
	if cfg.DefaultJobBudget <= 0 {
		cfg.DefaultJobBudget = cfg.MemoryBudget / 8
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 16
	}
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Reg,
		graphs: make(map[string]*residentGraph),
		jobs:   make(map[string]*Job),
	}
	s.reg.Gauge("graphz_serve_budget_total_bytes").Set(cfg.MemoryBudget)
	s.updateGaugesLocked()
	return s, nil
}

// Registry returns the server's metrics registry (the /metrics source).
func (s *Server) Registry() *obs.Registry { return s.reg }

// RegisterGraph makes a loaded degree-ordered graph resident under name.
// Its ResidentBytes (index + block table + adjacency cache, whether or
// not the cache has been filled yet) are reserved against the server
// budget immediately — admission must never discover them mid-run.
func (s *Server) RegisterGraph(name string, g *dos.Graph) error {
	if name == "" {
		return fmt.Errorf("%w: empty graph name", ErrBadRequest)
	}
	sg := core.NewSharedGraph(g)
	n2o, err := g.NewToOld()
	if err != nil {
		return fmt.Errorf("serve: loading %s ID map: %w", name, err)
	}
	o2n, err := g.OldToNew()
	if err != nil {
		return fmt.Errorf("serve: loading %s ID map: %w", name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.graphs[name]; dup {
		return fmt.Errorf("%w: graph %q already registered", ErrBadRequest, name)
	}
	rb := sg.ResidentBytes()
	if s.resident+rb > s.cfg.MemoryBudget {
		return fmt.Errorf("%w: graph %q needs %d resident bytes, %d of %d budget free",
			ErrBadRequest, name, rb, s.cfg.MemoryBudget-s.resident, s.cfg.MemoryBudget)
	}
	s.graphs[name] = &residentGraph{name: name, sg: sg, n2o: n2o, o2n: o2n}
	s.order = append(s.order, name)
	s.resident += rb
	s.updateGaugesLocked()
	return nil
}

// GraphInfo describes one resident graph over the API.
type GraphInfo struct {
	Name          string `json:"name"`
	Vertices      int    `json:"vertices"`
	Edges         int64  `json:"edges"`
	ResidentBytes int64  `json:"resident_bytes"`
	AdjacencyHot  bool   `json:"adjacency_hot"` // decoded cache filled
}

// Graphs lists the resident graphs in registration order.
func (s *Server) Graphs() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, len(s.order))
	for _, name := range s.order {
		g := s.graphs[name]
		out = append(out, GraphInfo{
			Name:          name,
			Vertices:      g.sg.Graph().NumVertices,
			Edges:         g.sg.Graph().NumEdges,
			ResidentBytes: g.sg.ResidentBytes(),
			AdjacencyHot:  g.sg.Adjacency().Filled(),
		})
	}
	return out
}

// maxFinishedJobs bounds the terminal jobs the server keeps: a finished
// job holds its values (8 bytes a vertex), report and registry outside
// every budget, so past this many the oldest-finished is dropped and its
// ID is not found (docs/SERVING.md). Queued and running jobs are never
// dropped.
const maxFinishedJobs = 128

// retireLocked records a job's terminal transition and evicts the
// oldest-finished job past maxFinishedJobs. Caller holds mu.
func (s *Server) retireLocked(j *Job) {
	s.finished = append(s.finished, j)
	if len(s.finished) <= maxFinishedJobs {
		return
	}
	old := s.finished[0]
	s.finished = slices.Delete(s.finished, 0, 1) // shifts: no evicted job stays reachable
	delete(s.jobs, old.ID)
	s.jobOrder = slices.DeleteFunc(s.jobOrder, func(j *Job) bool { return j == old })
}

// Stats is the server-level accounting snapshot.
type Stats struct {
	MemoryBudget  int64 `json:"memory_budget"`
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetInUse   int64 `json:"budget_in_use"` // running jobs' budgets
	JobsRunning   int   `json:"jobs_running"`
	JobsQueued    int   `json:"jobs_queued"`
	JobsTotal     int   `json:"jobs_total"` // retained: queued, running and the last finished
	Graphs        int   `json:"graphs"`
}

// Stats returns the current accounting snapshot.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		MemoryBudget:  s.cfg.MemoryBudget,
		ResidentBytes: s.resident,
		BudgetInUse:   s.inUse,
		JobsRunning:   s.running,
		JobsQueued:    len(s.queue),
		JobsTotal:     len(s.jobs),
		Graphs:        len(s.graphs),
	}
}

// updateGaugesLocked refreshes the server-level gauges. Caller holds mu
// (or is the constructor).
func (s *Server) updateGaugesLocked() {
	s.reg.Gauge("graphz_serve_jobs_running").Set(int64(s.running))
	s.reg.Gauge("graphz_serve_jobs_queued").Set(int64(len(s.queue)))
	s.reg.Gauge("graphz_serve_budget_used_bytes").Set(s.resident + s.inUse)
	s.reg.Gauge("graphz_serve_resident_bytes").Set(s.resident)
}

// pumpLocked admits queued jobs in strict FIFO order while the head fits
// the free budget: resident + inUse + head.Budget <= MemoryBudget. It
// stops at the first head that does not fit — a large job is never
// starved by smaller ones behind it. Caller holds mu.
func (s *Server) pumpLocked() {
	for len(s.queue) > 0 {
		j := s.queue[0]
		if s.resident+s.inUse+j.Budget > s.cfg.MemoryBudget {
			break
		}
		s.queue = s.queue[1:]
		s.inUse += j.Budget
		s.running++
		j.setRunning()
		go s.run(j)
	}
	s.updateGaugesLocked()
}

// release returns a finished job's budget and admits what now fits.
func (s *Server) release(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inUse -= j.Budget
	s.running--
	s.pumpLocked()
}
