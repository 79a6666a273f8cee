package serve

import (
	"errors"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphz/internal/algo/plain"
	"graphz/internal/bench"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// buildGraph converts an RMAT edge set to a block-encoded (groupvarint) DOS
// graph on a fresh device, so the serving win includes codec decode.
func buildGraph(t *testing.T, seed uint64) (*dos.Graph, []graph.Edge) {
	t.Helper()
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, seed)
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev, Codec: storage.CodecGroupVarint}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	return g, edges
}

func newServer(t *testing.T, budget int64, g *dos.Graph) *Server {
	t.Helper()
	s, err := New(Config{MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGraph("main", g); err != nil {
		t.Fatal(err)
	}
	return s
}

func submitWait(t *testing.T, s *Server, req SubmitRequest) JobStatus {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// soloValues runs the same algorithm standalone — a private engine on a
// fresh layout with no shared adjacency, the exact path graphz-run
// takes — and returns its values in original-ID order.
func soloValues(t *testing.T, g *dos.Graph, algo bench.Algo, p bench.AlgoParams, budget int64) map[uint32]float64 {
	t.Helper()
	_, vals, err := bench.ExecAlgo(algo, core.DOSLayout(g), core.Options{
		MemoryBudget: budget, DynamicMessages: true, Name: "solo-" + string(algo),
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	n2o, err := g.NewToOld()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint32]float64, len(vals))
	for newID, v := range vals {
		out[uint32(n2o[newID])] = v
	}
	return out
}

// TestServingWin is the acceptance test: with one shared resident graph,
// k sequential point-query jobs pay the open/decode cost exactly once —
// device read bytes and codec decode counters for jobs 2..k are strictly
// below job 1 — and every job's results are byte-identical to a
// standalone run.
func TestServingWin(t *testing.T) {
	g, _ := buildGraph(t, 91)
	const jobBudget = 8 << 20
	s := newServer(t, 256<<20, g)

	src := uint32(0)
	const k = 4
	var stats [k]JobStatus
	for i := 0; i < k; i++ {
		stats[i] = submitWait(t, s, SubmitRequest{Graph: "main", Algo: "BFS", Budget: jobBudget, Source: &src})
		if stats[i].State != StateDone {
			t.Fatalf("job %d state %s (%s)", i+1, stats[i].State, stats[i].Error)
		}
	}

	// Job 1 paid the decode: encoded bytes read off the device plus the
	// whole-file fill. Jobs 2..k must be strictly cheaper on both axes.
	if stats[0].CodecBytesEncoded == 0 {
		t.Fatal("job 1 decoded nothing — shared fill did not run")
	}
	if stats[0].DeviceReadBytes == 0 {
		t.Fatal("job 1 read nothing")
	}
	for i := 1; i < k; i++ {
		if stats[i].DeviceReadBytes >= stats[0].DeviceReadBytes {
			t.Errorf("job %d read %d device bytes, not below job 1's %d",
				i+1, stats[i].DeviceReadBytes, stats[0].DeviceReadBytes)
		}
		if stats[i].CodecBytesEncoded >= stats[0].CodecBytesEncoded {
			t.Errorf("job %d decoded %d encoded bytes, not below job 1's %d",
				i+1, stats[i].CodecBytesEncoded, stats[0].CodecBytesEncoded)
		}
		if stats[i].CodecBytesEncoded != 0 {
			t.Errorf("job %d decoded %d encoded bytes, want 0 with a hot cache",
				i+1, stats[i].CodecBytesEncoded)
		}
	}

	// Results byte-identical to a standalone engine run.
	want := soloValues(t, g, bench.BFS, bench.AlgoParams{Source: 0}, jobBudget)
	for i := 0; i < k; i++ {
		res, err := s.Result(stats[i].ID, 0, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.All) != len(want) {
			t.Fatalf("job %d returned %d values, want %d", i+1, len(res.All), len(want))
		}
		for _, vv := range res.All {
			if vv.Value != want[vv.Vertex] {
				t.Fatalf("job %d vertex %d = %v, solo %v", i+1, vv.Vertex, vv.Value, want[vv.Vertex])
			}
		}
	}

	// Distinct algorithms see the same hot cache.
	pr := submitWait(t, s, SubmitRequest{Graph: "main", Algo: "PR", Budget: jobBudget})
	if pr.State != StateDone {
		t.Fatalf("PR job: %s (%s)", pr.State, pr.Error)
	}
	if pr.CodecBytesEncoded != 0 {
		t.Errorf("PR job decoded %d bytes on a hot cache", pr.CodecBytesEncoded)
	}
	prWant := soloValues(t, g, bench.PR, bench.AlgoParams{}, jobBudget)
	prRes, err := s.Result(pr.ID, 0, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, vv := range prRes.All {
		if vv.Value != prWant[vv.Vertex] {
			t.Fatalf("PR vertex %d = %v, solo %v", vv.Vertex, vv.Value, prWant[vv.Vertex])
		}
	}
}

// TestServedJobsScheduled: a job asks for no scheduling, yet a BFS job,
// whose program declares core.FrontierSafe, is scheduled selectively — over
// a grid cut into 64-entry blocks, its thin frontier leaves blocks unread —
// and still returns plain.BFS's levels; a PageRank job, undeclared, scans
// and skips no block.
func TestServedJobsScheduled(t *testing.T) {
	const rows, cols = 48, 48
	edges := gen.Grid(rows, cols)
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev, Codec: storage.CodecRaw, BlockEntries: 64}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, 256<<20, g)
	src := uint32(rows/2*cols + cols/2)
	run := func(algo string) (string, map[string]int64) {
		st := submitWait(t, s, SubmitRequest{Graph: "main", Algo: algo, Source: &src})
		if st.State != StateDone {
			t.Fatalf("%s job: %s (%s)", algo, st.State, st.Error)
		}
		rep, err := s.Report(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID, rep.Counters
	}
	id, c := run("BFS")
	if c["graphz_blocks_skipped_total"] == 0 || c["graphz_blocks_scanned_total"] == 0 {
		t.Errorf("BFS job scanned %d blocks and skipped %d, want a selective schedule",
			c["graphz_blocks_scanned_total"], c["graphz_blocks_skipped_total"])
	}
	want := plain.BFS(plain.BuildAdjacency(rows*cols, edges), graph.VertexID(src))
	res, err := s.Result(id, 0, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != len(want) {
		t.Fatalf("BFS job returned %d values for %d vertices", len(res.All), len(want))
	}
	for _, vv := range res.All {
		if vv.Value != float64(want[vv.Vertex]) {
			t.Fatalf("BFS job vertex %d = %v, plain.BFS %d", vv.Vertex, vv.Value, want[vv.Vertex])
		}
	}
	if _, c := run("PR"); c["graphz_blocks_scanned_total"]+c["graphz_blocks_skipped_total"] != 0 {
		t.Errorf("PageRank job scanned %d blocks and skipped %d, want no schedule",
			c["graphz_blocks_scanned_total"], c["graphz_blocks_skipped_total"])
	}
}

// TestConcurrentJobs runs several jobs at once over one shared graph and
// checks each against its solo run.
func TestConcurrentJobs(t *testing.T) {
	g, _ := buildGraph(t, 92)
	const jobBudget = 8 << 20
	s := newServer(t, 256<<20, g)

	algos := []string{"BFS", "CC", "PR", "SSSP"}
	ids := make([]string, len(algos))
	for i, a := range algos {
		st, err := s.Submit(SubmitRequest{Graph: "main", Algo: a, Budget: jobBudget})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			s.Wait(id) //nolint:errcheck
		}(id)
	}
	wg.Wait()

	for i, a := range algos {
		st, err := s.Job(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("%s: %s (%s)", a, st.State, st.Error)
		}
		algo, _ := bench.ParseAlgo(a)
		want := soloValues(t, g, algo, bench.AlgoParams{}, jobBudget)
		res, err := s.Result(ids[i], 0, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, vv := range res.All {
			if vv.Value != want[vv.Vertex] {
				t.Fatalf("%s vertex %d = %v, solo %v", a, vv.Vertex, vv.Value, want[vv.Vertex])
			}
		}
	}

	if st := s.Stats(); st.BudgetInUse != 0 || st.JobsRunning != 0 {
		t.Errorf("budget not fully released: %+v", st)
	}
}

// checkInvariant asserts the server never over-commits its budget.
func checkInvariant(t *testing.T, s *Server) {
	t.Helper()
	st := s.Stats()
	if st.ResidentBytes+st.BudgetInUse > st.MemoryBudget {
		t.Fatalf("budget exceeded: resident %d + in-use %d > total %d",
			st.ResidentBytes, st.BudgetInUse, st.MemoryBudget)
	}
}

// TestAdmissionControl is the other acceptance leg: over-budget
// submissions queue FIFO, oversized ones are rejected outright, the
// server never exceeds its global budget, and cancellation releases
// budget (queued and running both).
func TestAdmissionControl(t *testing.T) {
	g, _ := buildGraph(t, 93)
	resident := core.NewSharedGraph(g).ResidentBytes()

	// Budget fits the resident graph plus exactly two 8 MiB jobs.
	const jobBudget = 8 << 20
	total := resident + 2*jobBudget + jobBudget/2
	s, err := New(Config{MemoryBudget: total, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGraph("main", g); err != nil {
		t.Fatal(err)
	}

	// Hold admitted jobs at the start line so admission state is
	// observable; released (or cancelled) jobs proceed normally.
	hold := make(chan struct{})
	s.beforeRun = func(j *Job) {
		select {
		case <-hold:
		case <-j.ctx.Done():
		}
	}

	submit := func() JobStatus {
		t.Helper()
		st, err := s.Submit(SubmitRequest{Graph: "main", Algo: "BFS", Budget: jobBudget})
		if err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, s)
		return st
	}

	j1, j2, j3, j4 := submit(), submit(), submit(), submit()
	st := s.Stats()
	if st.JobsRunning != 2 || st.JobsQueued != 2 {
		t.Fatalf("running %d queued %d, want 2/2", st.JobsRunning, st.JobsQueued)
	}
	for _, id := range []string{j1.ID, j2.ID} {
		if got, _ := s.Job(id); got.State != StateRunning {
			t.Errorf("%s state %s, want running", id, got.State)
		}
	}
	for _, id := range []string{j3.ID, j4.ID} {
		if got, _ := s.Job(id); got.State != StateQueued {
			t.Errorf("%s state %s, want queued", id, got.State)
		}
	}

	// Queue at capacity: the next submission bounces with ErrQueueFull.
	if _, err := s.Submit(SubmitRequest{Graph: "main", Algo: "BFS", Budget: jobBudget}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("5th submit err = %v, want ErrQueueFull", err)
	}

	// Oversized: no admission order can ever run it — rejected, not
	// queued (checked before the queue-limit bounce).
	if _, err := s.Submit(SubmitRequest{Graph: "main", Algo: "BFS", Budget: total}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized submit err = %v, want ErrBadRequest", err)
	}

	// Cancelling a queued job removes it without touching the budget.
	if st, err := s.Cancel(j3.ID); err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued: %+v, %v", st, err)
	}
	checkInvariant(t, s)
	if st := s.Stats(); st.JobsQueued != 1 {
		t.Fatalf("queued %d after cancel, want 1", st.JobsQueued)
	}

	// Cancelling a running job releases its budget, admitting the next
	// queued job (j4).
	if _, err := s.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(j1.ID); err != nil || st.State != StateCancelled {
		t.Fatalf("wait cancelled: %+v, %v", st, err)
	}
	checkInvariant(t, s)
	waitState := func(id string, want JobState) {
		t.Helper()
		got, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != want {
			t.Fatalf("%s state %s, want %s", id, got.State, want)
		}
	}
	waitState(j4.ID, StateRunning)
	if st := s.Stats(); st.JobsQueued != 0 || st.JobsRunning != 2 {
		t.Fatalf("after release: %+v", st)
	}

	// Let the held jobs run to completion; everything drains.
	close(hold)
	for _, id := range []string{j2.ID, j4.ID} {
		if st, err := s.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("%s: %+v, %v", id, st, err)
		}
	}
	checkInvariant(t, s)
	if st := s.Stats(); st.BudgetInUse != 0 || st.JobsRunning != 0 {
		t.Fatalf("budget leaked: %+v", st)
	}
}

// TestSubmitValidation covers the 400-class submission errors.
func TestSubmitValidation(t *testing.T) {
	g, _ := buildGraph(t, 94)
	s := newServer(t, 256<<20, g)

	if _, err := s.Submit(SubmitRequest{Graph: "nope", Algo: "BFS"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown graph: %v", err)
	}
	if _, err := s.Submit(SubmitRequest{Graph: "main", Algo: "nope"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown algo: %v", err)
	}
	// Past the ID map, the map's length, NoVertex itself, and an ID inside
	// the map that names no vertex.
	absent := slices.Index(s.graphs["main"].o2n, graph.NoVertex)
	if absent < 0 {
		t.Fatal("every ID below the largest names a vertex; no absent ID to ask for")
	}
	for _, bad := range []uint32{1 << 30, uint32(len(s.graphs["main"].o2n)), uint32(graph.NoVertex), uint32(absent)} {
		if _, err := s.Submit(SubmitRequest{Graph: "main", Algo: "BFS", Source: &bad}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("source %d: %v", bad, err)
		}
	}
	if _, err := s.Job("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown job: want ErrNotFound")
	}
	if _, err := s.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown job: want ErrNotFound")
	}

	// A job whose engine budget is too small to plan fails at run time,
	// classified for the API as a budget error.
	st := submitWait(t, s, SubmitRequest{Graph: "main", Algo: "BFS", Budget: 4096})
	if st.State != StateFailed || st.ErrorKind != "budget" {
		t.Errorf("tiny-budget job: state %s kind %q (%s)", st.State, st.ErrorKind, st.Error)
	}
}

// TestJobFilesCleanedUp: a finished (or cancelled) job leaves no runtime
// files on the shared device.
func TestJobFilesCleanedUp(t *testing.T) {
	g, _ := buildGraph(t, 95)
	s := newServer(t, 256<<20, g)
	st := submitWait(t, s, SubmitRequest{Graph: "main", Algo: "CC", Budget: 8 << 20})
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	for _, f := range g.Device().List() {
		if len(f) > 4 && f[:4] == "job-" {
			t.Errorf("leftover job file %q", f)
		}
	}
}

// TestDeviceFileStatsBounded: a long-lived server's device must not grow
// one per-file counter set per finished job, and a job's report lists the
// graph's files and that job's own runtime files only — the fiftieth
// job's report is the same size as the first's.
func TestDeviceFileStatsBounded(t *testing.T) {
	g, _ := buildGraph(t, 97)
	s := newServer(t, 256<<20, g)
	dev := g.Device()
	var firstStats, firstFiles int
	for i := 1; i <= 50; i++ {
		st := submitWait(t, s, SubmitRequest{Graph: "main", Algo: "CC", Budget: 8 << 20})
		if st.State != StateDone {
			t.Fatalf("job %d: %s (%s)", i, st.State, st.Error)
		}
		rep, err := s.Report(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		for name := range rep.Files {
			if !strings.HasPrefix(name, st.ID+".") && !strings.HasPrefix(name, g.Prefix()+".") {
				t.Errorf("job %s's report lists %q", st.ID, name)
			}
		}
		if _, ok := rep.Files[st.ID+".vstate"]; !ok {
			t.Errorf("job %s's report lacks its own vertex-state file: %v", st.ID, rep.Files)
		}
		if i == 1 {
			firstStats, firstFiles = len(dev.FileStats()), len(rep.Files)
			continue
		}
		if got := len(dev.FileStats()); got != firstStats {
			t.Fatalf("after job %d the device tracks %d files, after job 1 it tracked %d", i, got, firstStats)
		}
		if got := len(rep.Files); got != firstFiles {
			t.Fatalf("job %d's report lists %d files, job 1's listed %d", i, got, firstFiles)
		}
	}
}

// TestFinishedJobsBounded: a long-lived server keeps the last
// maxFinishedJobs terminal jobs, not one values vector and report per job
// ever served. Past the bound the oldest-finished are gone from every view
// — status, result, report and cancel are 404 — and the table and Stats
// count what is kept, while the labelled counters, added at each job's
// terminal transition, count every job.
func TestFinishedJobsBounded(t *testing.T) {
	g, _ := buildGraph(t, 99)
	s := newServer(t, 256<<20, g)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const k = 3
	var ids []string
	for i := 0; i < maxFinishedJobs+k; i++ {
		st := submitWait(t, s, SubmitRequest{Graph: "main", Algo: "BFS", Budget: 8 << 20})
		if st.State != StateDone {
			t.Fatalf("job %d: %s (%s)", i+1, st.State, st.Error)
		}
		ids = append(ids, st.ID)
	}
	if jobs, st := s.Jobs(), s.Stats(); len(jobs) != maxFinishedJobs || st.JobsTotal != maxFinishedJobs || jobs[0].ID != ids[k] {
		t.Errorf("%d jobs listed from %s, JobsTotal %d; want the last %d", len(jobs), jobs[0].ID, st.JobsTotal, maxFinishedJobs)
	}
	for i, id := range ids {
		_, errJob := s.Job(id)
		_, errResult := s.Result(id, 0, nil, false)
		_, errReport := s.Report(id)
		_, errCancel := s.Cancel(id)
		for _, err := range []error{errJob, errResult, errReport, errCancel} {
			if errors.Is(err, ErrNotFound) != (i < k) {
				t.Fatalf("job %d of %d (%s): %v", i+1, len(ids), id, err)
			}
		}
		for _, path := range []string{"", "/result", "/report"} {
			if code := doJSON(t, ts.Client(), "GET", ts.URL+"/jobs/"+id+path, nil, nil); (code == 404) != (i < k) {
				t.Fatalf("GET /jobs/%s%s = %d", id, path, code)
			}
		}
	}
	if got := s.Registry().CounterValue(obs.LabelName("graphz_serve_jobs_finished_total", "state", "done")); got != maxFinishedJobs+k {
		t.Errorf("graphz_serve_jobs_finished_total{state=done} = %d, want %d", got, maxFinishedJobs+k)
	}
}

// TestMetricsSeriesBounded: /metrics carries one series per (metric,
// graph, algorithm), not per job — thirty jobs of the same graph and
// algorithms expose exactly the series three did — and each series is a
// true counter: the sum of what its jobs reported.
func TestMetricsSeriesBounded(t *testing.T) {
	g, _ := buildGraph(t, 98)
	s := newServer(t, 256<<20, g)
	algos := []string{"BFS", "CC", "PR"}
	series := func() int {
		var b strings.Builder
		if err := s.Registry().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, line := range strings.Split(b.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				n++
			}
		}
		return n
	}
	var after3 int
	var ccInline int64
	for i := 0; i < 30; i++ {
		st := submitWait(t, s, SubmitRequest{Graph: "main", Algo: algos[i%3], Budget: 8 << 20, Iterations: 2})
		if st.State != StateDone {
			t.Fatalf("job %d: %s (%s)", i+1, st.State, st.Error)
		}
		if algos[i%3] == "CC" {
			rep, err := s.Report(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			ccInline += rep.Counters["graphz_messages_inline_total"]
		}
		if i == 2 {
			after3 = series()
		}
	}
	if got := series(); got != after3 {
		t.Errorf("/metrics has %d series after 30 jobs, %d after 3", got, after3)
	}
	name := obs.LabelName("graphz_messages_inline_total", "graph", "main", "algo", "CC")
	if got := s.Registry().CounterValue(name); got != ccInline || got == 0 {
		t.Errorf("%s = %d, its ten jobs reported %d", name, got, ccInline)
	}
}
