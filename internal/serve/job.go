package serve

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"graphz/internal/bench"
	"graphz/internal/core"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// JobState is a job's lifecycle position: queued → running → one of
// done / failed / cancelled.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (st JobState) Terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCancelled
}

// SubmitRequest is the POST /jobs body. Source is in the graph's
// original (input) vertex-ID space; omitted, the job roots at the
// max-out-degree vertex (degree-ordered new ID 0), the same default the
// benchmark harness uses.
type SubmitRequest struct {
	Graph      string  `json:"graph"`
	Algo       string  `json:"algo"`
	Budget     int64   `json:"budget,omitempty"`
	Source     *uint32 `json:"source,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Damping    float32 `json:"damping,omitempty"`
	Walkers    int     `json:"walkers,omitempty"`
}

// Job is one submitted run. Fields past the constructor are guarded by
// the server's mutex; the run goroutine owns the engine itself.
type Job struct {
	ID     string
	Graph  string
	Algo   bench.Algo
	Budget int64

	state     JobState
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time

	params bench.AlgoParams
	rg     *residentGraph
	reg    *obs.Registry // per-job engine metrics
	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{}

	result   core.Result
	values   []float64 // per-vertex, new-ID space
	report   *obs.RunReport
	deviceIO storage.Stats
	wall     time.Duration
}

// JobStatus is the API view of a job. The device and codec counters are
// what the serving win is measured by: with a warm shared graph they
// collapse to zero for everything but the job's own vertex-state and
// message files.
type JobStatus struct {
	ID        string    `json:"id"`
	Graph     string    `json:"graph"`
	Algo      string    `json:"algo"`
	State     JobState  `json:"state"`
	Budget    int64     `json:"budget"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	Error     string    `json:"error,omitempty"`
	// ErrorKind classifies failures: "cancelled", "bad_request" for
	// configurations the caller must fix (core.ErrInvalidOptions, which no
	// admitted job's options draw), "budget" for runs whose engine budget
	// could not fit the graph (core.ErrMemoryBudget), "internal" otherwise.
	ErrorKind string `json:"error_kind,omitempty"`

	Iterations        int           `json:"iterations,omitempty"`
	Partitions        int           `json:"partitions,omitempty"`
	WallTime          time.Duration `json:"wall_time_ns,omitempty"`
	DeviceReadBytes   int64         `json:"device_read_bytes"`
	DeviceWriteBytes  int64         `json:"device_write_bytes"`
	DeviceReadOps     int64         `json:"device_read_ops"`
	CodecBytesEncoded int64         `json:"codec_bytes_encoded"`
	CodecBytesRaw     int64         `json:"codec_bytes_raw"`
}

// setRunning transitions queued → running. Caller holds the server mu.
func (j *Job) setRunning() {
	j.state = StateRunning
	j.started = time.Now()
}

// statusLocked renders the API view. Caller holds the server mu.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID: j.ID, Graph: j.Graph, Algo: string(j.Algo), State: j.state,
		Budget:    j.Budget,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Iterations: j.result.Iterations, Partitions: j.result.Partitions,
		WallTime:          j.wall,
		DeviceReadBytes:   j.deviceIO.ReadBytes,
		DeviceWriteBytes:  j.deviceIO.WriteBytes,
		DeviceReadOps:     j.deviceIO.ReadOps,
		CodecBytesEncoded: j.result.CodecBytesEncoded,
		CodecBytesRaw:     j.result.CodecBytesRaw,
	}
	if j.err != nil {
		st.Error = j.err.Error()
		st.ErrorKind = errorKind(j.err)
	}
	return st
}

// errorKind classifies a run error for the API (and the HTTP layer's
// 4xx-vs-5xx mapping of submission-time failures).
func errorKind(err error) string {
	switch {
	case errors.Is(err, core.ErrCancelled):
		return "cancelled"
	case errors.Is(err, core.ErrInvalidOptions):
		return "bad_request"
	case errors.Is(err, core.ErrMemoryBudget):
		return "budget"
	default:
		return "internal"
	}
}

// Submit validates a request, assigns the job ID, and either admits the
// job immediately or queues it (bounded FIFO). The returned status is
// the submission-time snapshot; poll Job/status for progress.
func (s *Server) Submit(req SubmitRequest) (JobStatus, error) {
	algo, err := bench.ParseAlgo(req.Algo)
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	rg, ok := s.graphs[req.Graph]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: unknown graph %q (registered: %s)",
			ErrBadRequest, req.Graph, strings.Join(s.order, ", "))
	}
	budget := req.Budget
	if budget <= 0 {
		budget = s.cfg.DefaultJobBudget
	}
	// Oversized means no admission order can ever run it: even with the
	// server idle, resident graphs plus this budget exceed the total.
	if s.resident+budget > s.cfg.MemoryBudget {
		return JobStatus{}, fmt.Errorf("%w: job budget %d cannot fit: %d of %d server budget remain after resident graphs",
			ErrBadRequest, budget, s.cfg.MemoryBudget-s.resident, s.cfg.MemoryBudget)
	}
	params := bench.AlgoParams{
		Iterations: req.Iterations,
		Damping:    req.Damping,
		Walkers:    req.Walkers,
	}
	if req.Source != nil {
		src, ok := rg.newID(*req.Source)
		if !ok {
			return JobStatus{}, fmt.Errorf("%w: source vertex %d not in graph %q", ErrBadRequest, *req.Source, req.Graph)
		}
		params.Source = src
	}
	if len(s.queue) >= s.cfg.QueueLimit {
		return JobStatus{}, fmt.Errorf("%w: %d jobs queued (limit %d)", ErrQueueFull, len(s.queue), s.cfg.QueueLimit)
	}

	s.nextID++
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", s.nextID),
		Graph:     req.Graph,
		Algo:      algo,
		Budget:    budget,
		state:     StateQueued,
		submitted: time.Now(),
		params:    params,
		rg:        rg,
		reg:       obs.NewRegistry(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j)
	s.queue = append(s.queue, j)
	s.pumpLocked()
	return j.statusLocked(), nil
}

// run executes an admitted job on its own goroutine: a private engine
// over the shared graph, runtime files prefixed with the job ID, the
// job's context making it cancellable at partition boundaries.
func (s *Server) run(j *Job) {
	if hook := s.beforeRun; hook != nil {
		hook(j)
	}
	dev := j.rg.sg.Graph().Device()
	// Per-job device attribution by stats delta: exact when jobs run
	// one at a time, approximate under concurrency (the device is
	// shared). The per-job registry's codec counters are always exact.
	before := dev.Stats()
	tr := obs.NewCollectingTracer(nil)
	t0 := time.Now()
	opts := core.Options{
		MemoryBudget:    j.Budget,
		DynamicMessages: true,
		Context:         j.ctx,
		Name:            j.ID,
		SharedAdjacency: j.rg.sg.Adjacency(),
		Obs:             j.reg,
		Trace:           tr,
	}
	res, vals, err := bench.ExecAlgo(j.Algo, j.rg.sg.View(), opts, j.params)
	wall := time.Since(t0)
	io := dev.Stats().Sub(before)
	if err != nil {
		// A failed or cancelled run leaves its vertex-state and message
		// files behind (graphzalgo only cleans up on success); drop
		// everything under the job's prefix so the device doesn't leak.
		removeJobFiles(dev, j.ID+".")
	}
	var report *obs.RunReport
	if err == nil {
		// The device is shared: the report lists the graph's files and
		// this job's own runtime files, not other jobs'.
		files := core.DeviceFileIO(dev)
		own, shared := j.ID+".", j.rg.sg.Graph().Prefix()+"."
		for name := range files {
			if !strings.HasPrefix(name, own) && !strings.HasPrefix(name, shared) {
				delete(files, name)
			}
		}
		report = obs.BuildReport(obs.ReportInfo{
			Engine:      "graphz-serve",
			Algo:        string(j.Algo),
			Device:      dev.Kind().String(),
			BudgetBytes: j.Budget,
			Config:      map[string]string{"graph": j.Graph, "job": j.ID},
		}, j.reg, tr, files)
	}
	// The job's files are gone; so must their per-file counters be, or a
	// long-lived device grows by 1 + partitions entries per job.
	dev.ForgetFileStats(j.ID + ".")

	s.mu.Lock()
	j.finished = time.Now()
	j.wall = wall
	j.deviceIO = io
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		j.values = vals
		j.report = report
	case errors.Is(err, core.ErrCancelled):
		j.state = StateCancelled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	s.exportJobMetricsLocked(j)
	s.retireLocked(j)
	s.mu.Unlock()
	// Release before signalling done so a waiter observing a terminal
	// state also observes the budget returned.
	s.release(j)
	close(j.done)
}

// removeJobFiles drops every device file under prefix (best effort; the
// device records failures in its RemoveErrors stat).
func removeJobFiles(dev *storage.Device, prefix string) {
	for _, f := range dev.List() {
		if strings.HasPrefix(f, prefix) {
			dev.Remove(f) //nolint:errcheck // audit trail in device stats
		}
	}
}

// exportJobMetricsLocked adds a job's final engine counters into the
// server registry at its terminal transition, as true counters labeled by
// graph and algorithm: the series count is metrics × graphs × algorithms,
// whatever the number of jobs served. A failed or cancelled job adds the
// part it got through (the engine publishes on abort). Per-job detail
// stays where it is exact: GET /jobs/{id} and /jobs/{id}/report. Caller
// holds mu.
func (s *Server) exportJobMetricsLocked(j *Job) {
	s.reg.Counter(obs.LabelName("graphz_serve_jobs_finished_total", "state", string(j.state))).Inc()
	for name, v := range j.reg.Counters() {
		s.reg.Counter(obs.LabelName(name, "graph", j.Graph, "algo", string(j.Algo))).Add(v)
	}
}

// Job returns the status snapshot of one job.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	return j.statusLocked(), nil
}

// Jobs lists the retained jobs in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobOrder))
	for _, j := range s.jobOrder {
		out = append(out, j.statusLocked())
	}
	return out
}

// Cancel stops a job: a queued job is removed from the admission queue
// immediately; a running one has its context cancelled and finishes at
// the next partition boundary (poll until terminal). Cancelling a
// terminal job is a no-op returning its final status.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	switch j.state {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.state = StateCancelled
		j.finished = time.Now()
		j.err = fmt.Errorf("%w: cancelled while queued", core.ErrCancelled)
		s.exportJobMetricsLocked(j)
		s.retireLocked(j)
		close(j.done)
		// Removing a queued head can unblock nothing (it held no
		// budget), but the next head may differ in size; re-pump.
		s.pumpLocked()
	case StateRunning:
		j.cancel(fmt.Errorf("cancelled via API"))
	}
	st := j.statusLocked()
	s.mu.Unlock()
	return st, nil
}

// Wait blocks until the job reaches a terminal state (tests and clients
// that prefer blocking to polling) and returns that job's final status —
// which a lookup by ID could already miss, the job evicted meanwhile.
func (s *Server) Wait(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	<-j.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.statusLocked(), nil
}

// VertexValue is one (original vertex ID, value) pair of a result.
type VertexValue struct {
	Vertex uint32  `json:"vertex"`
	Value  float64 `json:"value"`
}

// MarshalJSON encodes a non-finite value — SSSP leaves +Inf on vertices
// the root cannot reach — as null: JSON has no literal for it and
// encoding/json refuses the float.
func (v VertexValue) MarshalJSON() ([]byte, error) {
	if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
		return fmt.Appendf(nil, `{"vertex":%d,"value":null}`, v.Vertex), nil
	}
	type plain VertexValue // drops the method, keeps the tags
	return json.Marshal(plain(v))
}

// JobResult is the GET /jobs/{id}/result payload: the top-K vertices by
// value (descending; K via ?top, default 10), a single vertex's value
// (?vertex), or the full vector (?all=1), always in original vertex IDs.
type JobResult struct {
	ID         string        `json:"id"`
	Algo       string        `json:"algo"`
	State      JobState      `json:"state"`
	Iterations int           `json:"iterations"`
	Top        []VertexValue `json:"top,omitempty"`
	Vertex     *VertexValue  `json:"vertex,omitempty"`
	All        []VertexValue `json:"all,omitempty"`
}

// Result extracts a finished job's values. top <= 0 means 10; vertex,
// when non-nil, selects one original-ID vertex instead; all dumps the
// whole vector. The lock is held only while the job's fields are read: a
// done job's values and its graph's ID maps never change again, so the
// O(V) work — selecting, sorting, copying — runs beside Submit, status
// polls and budget releases instead of ahead of them.
func (s *Server) Result(id string, top int, vertex *uint32, all bool) (JobResult, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobResult{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	out := JobResult{ID: j.ID, Algo: string(j.Algo), State: j.state, Iterations: j.result.Iterations}
	values, rg := j.values, j.rg
	s.mu.Unlock()
	if out.State != StateDone {
		return JobResult{}, fmt.Errorf("%w: job %s is %s, results exist only for done jobs", ErrBadRequest, id, out.State)
	}

	switch {
	case vertex != nil:
		v, ok := rg.newID(*vertex)
		if !ok {
			return JobResult{}, fmt.Errorf("%w: vertex %d not in graph %q", ErrBadRequest, *vertex, j.Graph)
		}
		out.Vertex = &VertexValue{Vertex: *vertex, Value: values[v]}
	case all:
		out.All = make([]VertexValue, len(values))
		for newID, v := range values {
			out.All[newID] = VertexValue{Vertex: uint32(rg.n2o[newID]), Value: v}
		}
		sort.Slice(out.All, func(a, b int) bool { return out.All[a].Vertex < out.All[b].Vertex })
	default:
		if top <= 0 {
			top = 10
		}
		best := topK(values, min(top, len(values)))
		out.Top = make([]VertexValue, len(best))
		for i, newID := range best {
			out.Top[i] = VertexValue{Vertex: uint32(rg.n2o[newID]), Value: values[newID]}
		}
	}
	return out, nil
}

// topK returns the indices of the k best of values, best first — value
// descending, index ascending on ties: the first k of a full sort by that
// order, selected in O(len(values)·log k) with a heap whose root is the
// worst index kept so far.
func topK(values []float64, k int) []int {
	h := &worstFirst{values: values, idx: make([]int, 0, k)}
	for i := range values {
		switch {
		case len(h.idx) < k:
			heap.Push(h, i)
		case k > 0 && h.better(i, h.idx[0]):
			h.idx[0] = i
			heap.Fix(h, 0)
		}
	}
	best := make([]int, len(h.idx))
	for i := len(best) - 1; i >= 0; i-- {
		best[i] = heap.Pop(h).(int)
	}
	return best
}

// worstFirst is a container/heap of indices into values, the worst on top.
type worstFirst struct {
	values []float64
	idx    []int
}

func (h *worstFirst) better(a, b int) bool {
	if h.values[a] != h.values[b] {
		return h.values[a] > h.values[b]
	}
	return a < b
}

func (h *worstFirst) Len() int           { return len(h.idx) }
func (h *worstFirst) Less(a, b int) bool { return h.better(h.idx[b], h.idx[a]) }
func (h *worstFirst) Swap(a, b int)      { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *worstFirst) Push(x any)         { h.idx = append(h.idx, x.(int)) }

func (h *worstFirst) Pop() any {
	last := h.idx[len(h.idx)-1]
	h.idx = h.idx[:len(h.idx)-1]
	return last
}

// Report returns a finished job's RunReport profiling artifact.
func (s *Server) Report(id string) (*obs.RunReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	if j.report == nil {
		return nil, fmt.Errorf("%w: job %s is %s, no report", ErrBadRequest, id, j.state)
	}
	return j.report, nil
}
