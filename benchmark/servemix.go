package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphz/internal/bench"
	"graphz/internal/core"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/serve"
)

const (
	graphName    = "g"
	pollInterval = 2 * time.Millisecond
)

// jobSpec is one job of the mix: what to submit and what to expect back.
type jobSpec struct {
	class  string // "bfs", "pr", "sssp"
	algo   bench.Algo
	req    serve.SubmitRequest
	source graph.VertexID // graph ID space
	// want and its maximum are filled once the oracle exists.
	want    []float64
	wantMax float64
}

// jobSample is one served job as its client saw it, plus the server's own
// timestamps from the job's final status.
type jobSample struct {
	class                         string
	traced                        bool
	latency                       float64 // POST sent -> top-10 result received
	submit, resultTop             float64
	polls                         int
	queueWait, engineRun, postRun float64
	inUseOverBudget               float64
	codecEncoded                  int64
	partitions                    int
	id                            string
}

// served is one server over one converted graph, on a loopback listener.
type served struct {
	p        *prepared
	ts       *httptest.Server
	client   *http.Client
	register float64
	cold     float64
	coldIDs  []string // one finished cold job per class, in jobs order
}

// do issues one request and decodes a 2xx JSON body into out; any other
// status is an error carrying the body.
func (s *served) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return len(data), fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return len(data), fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return len(data), nil
}

// runJob is the end-to-end served op: submit, poll the status every 2 ms
// until terminal, fetch the top-10 result.
func (s *served) runJob(js *jobSpec, tr *tracer, sp *serveSpec) (jobSample, serve.JobResult, error) {
	out := jobSample{class: js.class, traced: tr != nil}
	op := tr.newOp()
	root := tr.start("serve.job."+js.class, -1, op)
	defer tr.end(root)

	var st serve.JobStatus
	t0 := time.Now()
	id := tr.start("serve.http_submit", root, op)
	_, err := s.do("POST", "/jobs", js.req, &st)
	tr.end(id)
	out.submit = seconds(time.Since(t0))
	if err != nil {
		return out, serve.JobResult{}, err
	}
	out.id = st.ID
	if tr != nil {
		var stats serve.Stats
		if _, err := s.do("GET", "/stats", nil, &stats); err != nil {
			return out, serve.JobResult{}, err
		}
		out.inUseOverBudget = float64(stats.ResidentBytes+stats.BudgetInUse) / float64(sp.serverBudget)
	}
	id = tr.start("serve.http_poll", root, op)
	for !st.State.Terminal() {
		time.Sleep(pollInterval)
		out.polls++
		if _, err := s.do("GET", "/jobs/"+st.ID, nil, &st); err != nil {
			tr.end(id)
			return out, serve.JobResult{}, err
		}
	}
	tr.end(id)
	if st.State != serve.StateDone {
		return out, serve.JobResult{}, fmt.Errorf("job %s (%s) ended %s: %s", st.ID, js.class, st.State, st.Error)
	}
	var res serve.JobResult
	t1 := time.Now()
	id = tr.start("serve.http_result_top", root, op)
	_, err = s.do("GET", "/jobs/"+st.ID+"/result?top=10", nil, &res)
	tr.end(id)
	out.resultTop = seconds(time.Since(t1))
	out.latency = seconds(time.Since(t0))
	out.queueWait = seconds(st.Started.Sub(st.Submitted))
	out.engineRun = seconds(st.WallTime)
	out.postRun = seconds(st.Finished.Sub(st.Started) - st.WallTime)
	out.codecEncoded, out.partitions = st.CodecBytesEncoded, st.Partitions
	return out, res, err
}

// checkTop holds a top-K result to the reference: every returned vertex
// must carry its reference value, and the first one the reference's
// maximum.
func (s *served) checkTop(js *jobSpec, res serve.JobResult) error {
	if len(res.Top) == 0 {
		return fmt.Errorf("job %s (%s): empty top-10", res.ID, js.class)
	}
	if !agrees(js.algo, res.Top[0].Value, js.wantMax) {
		return fmt.Errorf("job %s (%s): top value %v, want the maximum %v", res.ID, js.class, res.Top[0].Value, js.wantMax)
	}
	for _, vv := range res.Top {
		if int(vv.Vertex) >= len(s.p.o2n) || s.p.o2n[vv.Vertex] == graph.NoVertex {
			return fmt.Errorf("job %s (%s): vertex %d is not in the graph", res.ID, js.class, vv.Vertex)
		}
		if want := js.want[s.p.o2n[vv.Vertex]]; !agrees(js.algo, vv.Value, want) {
			return fmt.Errorf("job %s (%s): vertex %d = %v, want %v", res.ID, js.class, vv.Vertex, vv.Value, want)
		}
	}
	return nil
}

// checkAll fetches a job's whole vector and holds it to the reference;
// it returns the fetch time and body size.
func (s *served) checkAll(js *jobSpec, id string) (float64, int, error) {
	var res serve.JobResult
	t0 := time.Now()
	n, err := s.do("GET", "/jobs/"+id+"/result?all=1", nil, &res)
	d := seconds(time.Since(t0))
	if err != nil {
		return d, n, err
	}
	got := make([]float64, len(js.want))
	if len(res.All) != len(got) {
		return d, n, fmt.Errorf("job %s (%s): %d values, want %d", id, js.class, len(res.All), len(got))
	}
	for _, vv := range res.All {
		got[s.p.o2n[vv.Vertex]] = vv.Value
	}
	return d, n, s.p.compare(js.algo, got, js.want)
}

// mixJobs builds one job per class member: a BFS per seeded source (input
// IDs with out-edges), then the PageRank job, then the SSSP job (rooted,
// like the server's default, at graph ID 0).
func mixJobs(sp *spec, edges []graph.Edge, seed uint64) []*jobSpec {
	r := rand.New(rand.NewSource(int64(seed)))
	base := serve.SubmitRequest{Graph: graphName, Budget: sp.serve.jobBudget}
	var jobs []*jobSpec
	seen := map[graph.VertexID]bool{}
	for len(jobs) < sp.serve.bfsSources {
		src := edges[r.Intn(len(edges))].Src
		if seen[src] {
			continue
		}
		seen[src] = true
		req, old := base, uint32(src)
		req.Algo, req.Source = "bfs", &old
		jobs = append(jobs, &jobSpec{class: "bfs", algo: bench.BFS, req: req})
	}
	pr := base
	pr.Algo, pr.Iterations, pr.Damping = "pagerank", sp.iters, prDamping
	jobs = append(jobs, &jobSpec{class: "pr", algo: bench.PR, req: pr})
	sssp := base
	sssp.Algo = "sssp"
	return append(jobs, &jobSpec{class: "sssp", algo: bench.SSSP, req: sssp})
}

// oneOfEach picks one job per class (BFS, PageRank, SSSP) out of
// mixJobs' list.
func oneOfEach(sp *serveSpec, jobs []*jobSpec) []*jobSpec {
	return []*jobSpec{jobs[0], jobs[sp.bfsSources], jobs[sp.bfsSources+1]}
}

// segmentOrder is the fixed multiset of one segment — every BFS source
// once, prJobs PageRanks, ssspJobs SSSPs — in a seeded order.
func segmentOrder(sp *serveSpec, jobs []*jobSpec, r *rand.Rand) []*jobSpec {
	order := append([]*jobSpec(nil), jobs[:sp.bfsSources]...)
	for i := 0; i < sp.prJobs; i++ {
		order = append(order, jobs[sp.bfsSources])
	}
	for i := 0; i < sp.ssspJobs; i++ {
		order = append(order, jobs[sp.bfsSources+1])
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// bringUp is the served set-up after the conversion: server, graph
// registration, loopback listener, and one cold job per class (the first
// of them fills the shared adjacency).
func (r *run) bringUp(p *prepared, jobs []*jobSpec, parent, op int) (*served, time.Duration, error) {
	t0 := time.Now()
	id := r.tr.start("serve.register", parent, op)
	srv, err := serve.New(serve.Config{MemoryBudget: r.sp.serve.serverBudget, DefaultJobBudget: r.sp.serve.jobBudget})
	if err == nil {
		err = srv.RegisterGraph(graphName, p.g)
	}
	r.tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("bringing the server up: %w", err)
	}
	s := &served{p: p, register: seconds(time.Since(t0))}
	s.ts = httptest.NewServer(srv.Handler())
	s.client = s.ts.Client()
	t1 := time.Now()
	id = r.tr.start("serve.cold_jobs", parent, op)
	defer r.tr.end(id)
	for _, js := range oneOfEach(r.sp.serve, jobs) {
		smp, _, err := s.runJob(js, nil, r.sp.serve)
		if err != nil {
			s.ts.Close()
			return nil, 0, fmt.Errorf("cold %s job: %w", js.class, err)
		}
		s.coldIDs = append(s.coldIDs, smp.id)
	}
	s.cold = seconds(time.Since(t1))
	return s, time.Since(t0), nil
}

// runServe measures the served mix.
func (r *run) runServe() error {
	sv := r.sp.serve
	var s *served
	var jobs []*jobSpec
	p, setups, err := r.setUp(func(p *prepared, edges []graph.Edge, parent, op int) (time.Duration, error) {
		if jobs == nil {
			jobs = mixJobs(r.sp, edges, r.cfg.seed)
		}
		if s != nil {
			s.ts.Close()
		}
		var up time.Duration
		var err error
		s, up, err = r.bringUp(p, jobs, parent, op)
		return up, err
	})
	if err != nil {
		return err
	}
	defer s.ts.Close()

	// References, then the cold jobs' whole vectors against them.
	id := r.tr.start("plain.reference", -1, 0)
	for _, js := range jobs {
		if js.req.Source != nil {
			js.source = p.o2n[*js.req.Source]
		}
		js.want = p.reference(js.algo, js.source, r.sp.iters)
		js.wantMax = slices.Max(js.want)
	}
	r.tr.end(id)
	for i, js := range oneOfEach(sv, jobs) {
		r.attempted++
		if _, _, err := s.checkAll(js, s.coldIDs[i]); err != nil {
			r.fail(err)
		}
	}

	edgeReadsBefore := p.dev.FileStats()[p.g.EdgesFile()].ReadBytes
	rng := rand.New(rand.NewSource(int64(r.cfg.seed) + 1))
	var samples []jobSample
	// A segment is bracketed by two yardstick samples, as a batch op is.
	var segRate, segRef, segVsPlain, segPerPlain, segRead, segWrite []float64
	var usage []usageDelta
	var lastPR string
	var rejected int
	ref := yardstick(r.sp, p, 0)
	for d, seg := r.newDeadline(3), 0; d.next(); seg++ {
		order := segmentOrder(sv, jobs, rng)
		var tr *tracer
		if r.cfg.trace && seg%2 == 1 {
			tr = r.tr
		}
		runtime.GC()
		u0 := readUsage(r.cfg.trace)
		before := p.dev.Stats()
		got := make([]jobSample, len(order))
		tops := make([]serve.JobResult, len(order))
		errs := make([]error, len(order))
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < sv.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(order); i = int(next.Add(1)) - 1 {
					got[i], tops[i], errs[i] = s.runJob(order[i], tr, sv)
				}
			}()
		}
		wg.Wait()
		wall := seconds(time.Since(t0))
		io := p.dev.Stats().Sub(before)
		around := ref
		ref = yardstick(r.sp, p, 0)
		around = (around + ref) / 2
		if r.cfg.trace {
			usage = append(usage, perJob(readUsage(true).sub(u0), len(order)))
		}
		ok := true
		for i, err := range errs {
			r.attempted++
			if err == nil {
				err = s.checkTop(order[i], tops[i])
			}
			if err != nil {
				r.fail(err)
				ok = false
				if got[i].id == "" {
					rejected++
				}
				continue
			}
			if got[i].codecEncoded != 0 && r.shapeErr == "" {
				r.shapeErr = fmt.Sprintf("want warm jobs to decode nothing, job %s decoded %d encoded bytes", got[i].id, got[i].codecEncoded)
			}
			if order[i].class == "pr" {
				lastPR = got[i].id
			}
		}
		// The first segment warms the HTTP connections and the heap.
		if seg == 0 || !ok {
			continue
		}
		samples = append(samples, got...)
		n := float64(len(order))
		segRate = append(segRate, n/wall)
		segRef = append(segRef, around)
		segVsPlain = append(segVsPlain, medianOf(got, func(s jobSample) float64 { return s.latency })/around)
		segPerPlain = append(segPerPlain, n/wall*around)
		segRead = append(segRead, float64(io.ReadBytes)/n)
		segWrite = append(segWrite, float64(io.WriteBytes)/n)
	}
	warmReads := p.dev.FileStats()[p.g.EdgesFile()].ReadBytes - edgeReadsBefore
	if warmReads != 0 && r.shapeErr == "" {
		r.shapeErr = fmt.Sprintf("want warm jobs to read no edge bytes, read %d", warmReads)
	}
	if len(segRate) == 0 {
		return fmt.Errorf("%s: no segment completed without a failure; nothing to report", r.sp.name)
	}
	latency := func(keep func(jobSample) bool) []float64 {
		var out []float64
		for _, s := range samples {
			if keep(s) {
				out = append(out, s.latency)
			}
		}
		return out
	}
	all := latency(func(jobSample) bool { return true })
	if !r.cfg.trace {
		r.emitEndToEnd(p, setups, segVsPlain, segPerPlain, segRead, segWrite)
		r.absolute = fmt.Sprintf("median job %.6g s, median segment %.6g jobs/s, median yardstick %.6g s, n=%d jobs", median(all), median(segRate), median(segRef), len(all))
		return nil
	}

	r.emitSetupLayers(p)
	r.res.emit("serve.register_s", s.register, 1)
	r.res.emit("serve.cold_job_s", s.cold/float64(len(s.coldIDs)), len(s.coldIDs))
	if _, err := probeLayers(r.sp, p, r.tr, r.res); err != nil {
		return err
	}
	r.emitPlain(p, segRef, r.sp.iters)
	r.res.emit("bench.run_s", median(all), len(all))
	r.res.emit("bench.jobs_per_s", median(segRate), len(segRate))

	n := len(samples)
	for _, class := range []string{"bfs", "pr", "sssp"} {
		l := latency(func(s jobSample) bool { return s.class == class })
		r.res.emit("serve.job_s_p50."+class, median(l), len(l))
	}
	r.res.emit("serve.job_s_p95", quantile(all, 0.95), n)
	var waits []float64
	var polls, peak float64
	for _, s := range samples {
		waits = append(waits, s.queueWait)
		polls += float64(s.polls)
		peak = max(peak, s.inUseOverBudget)
	}
	engineRun := medianOf(samples, func(s jobSample) float64 { return s.engineRun })
	r.res.emit("serve.queue_wait_s_p50", median(waits), n)
	r.res.emit("serve.queue_wait_s_p95", quantile(waits, 0.95), n)
	r.res.emit("serve.engine_run_s_p50", engineRun, n)
	r.res.emit("serve.post_run_s_p50", medianOf(samples, func(s jobSample) float64 { return s.postRun }), n)
	r.res.emit("serve.http_submit_s_p50", medianOf(samples, func(s jobSample) float64 { return s.submit }), n)
	r.res.emit("serve.http_result_top_s_p50", medianOf(samples, func(s jobSample) float64 { return s.resultTop }), n)
	r.res.emit("serve.polls_per_job", polls/float64(n), n)
	r.res.emit("serve.rejected", float64(rejected), r.attempted)
	r.res.emit("serve.peak_in_use_over_budget", peak, n/2)
	r.res.emit("serve.warm_edge_read_bytes", float64(warmReads), n)

	// The calls outside the mix: one whole vector, one /metrics scrape
	// with every finished job's labelled series, one run report.
	prJob := jobs[sv.bfsSources]
	r.attempted++
	id = r.tr.start("serve.http_result_all", -1, 0)
	d, size, err := s.checkAll(prJob, lastPR)
	r.tr.end(id)
	if err != nil {
		r.fail(err)
	}
	r.res.emit("serve.result_all_s", d, 1)
	r.res.emit("serve.result_all_bytes", float64(size), 1)
	id = r.tr.start("serve.http_metrics", -1, 0)
	t0 := time.Now()
	_, err = s.do("GET", "/metrics", nil, nil)
	r.tr.end(id)
	if err != nil {
		return err
	}
	r.res.emit("serve.metrics_scrape_s", seconds(time.Since(t0)), 1)
	var rep obs.RunReport
	if _, err := s.do("GET", "/jobs/"+lastPR+"/report", nil, &rep); err != nil {
		return err
	}
	r.emitCoreFromReport(&rep, samples, usage, float64(p.edges))

	tracedLat := latency(func(s jobSample) bool { return s.traced })
	plainLat := latency(func(s jobSample) bool { return !s.traced })
	r.res.emit("bench.trace_overhead_ratio", ratio(median(tracedLat), median(plainLat)), len(tracedLat))
	r.res.emit("core.vs_plain_ratio", ratio(engineRun, median(segRef)), n)
	return r.probeServedObs(p)
}

func perJob(u usageDelta, jobs int) usageDelta {
	n := float64(jobs)
	return usageDelta{u.cpuS / n, u.allocMB / n, u.allocs / n, u.gcPauseMS / n}
}

// emitCoreFromReport fills core.* for the served mix from what the
// server publishes: a warm PageRank job's run report (counters and stage
// times, folded back into a core.Result) and the PageRank jobs' statuses.
// The report carries no update count; core.updates_run reads 0.
func (r *run) emitCoreFromReport(rep *obs.RunReport, samples []jobSample, usage []usageDelta, edges float64) {
	c := func(name string) int64 { return rep.Counters[name] }
	var prRuns []float64
	var partitions int
	for _, s := range samples {
		if s.class == "pr" {
			prRuns = append(prRuns, s.engineRun)
			partitions = s.partitions
		}
	}
	res := core.Result{
		Iterations:      len(rep.Iterations),
		Partitions:      partitions,
		SemiExternal:    c("graphz_sem_runs_total") > 0,
		MessagesSent:    c("graphz_messages_inline_total") + c("graphz_messages_buffered_total"),
		MessagesInline:  c("graphz_messages_inline_total"),
		MessagesSpilled: c("graphz_messages_spilled_total"),
		BlocksScanned:   c("graphz_blocks_scanned_total"),
		BlocksSkipped:   c("graphz_blocks_skipped_total"),
		DecodeTime:      time.Duration(c("graphz_codec_decode_ns_total")),
		Stages: obs.StageTimes{
			Sio:      time.Duration(c("graphz_stage_sio_ns_total")),
			Dispatch: time.Duration(c("graphz_stage_dispatch_ns_total")),
			Worker:   time.Duration(c("graphz_stage_worker_ns_total")),
			Drain:    time.Duration(c("graphz_stage_drain_ns_total")),
		},
	}
	observed := []tracedOp{{opSample: opSample{res: res, wall: median(prRuns)}}}
	r.emitCore(res, observed, prRuns, usage, edges)
}

// probeServedObs measures what always-on observation costs a served
// PageRank job, by running the job's engine configuration directly —
// shared adjacency included — with and without Options.Obs.
func (r *run) probeServedObs(p *prepared) error {
	r.shared = core.NewSharedGraph(p.g).Adjacency()
	params := bench.AlgoParams{Iterations: r.sp.iters, Damping: prDamping}
	want := p.reference(bench.PR, 0, r.sp.iters)
	var walls []float64
	var traced []tracedOp
	for i := 0; i < 4; i++ {
		s, err := execOp(p, bench.PR, r.engineOpts(), params, nil, -1, 0)
		r.judge(p, s, err, want, false)
		t, terr := r.tracedOp(p, params)
		r.judge(p, t.opSample, terr, want, false)
		if err != nil || terr != nil {
			return nil
		}
		if i > 0 { // the first pair fills the shared adjacency
			walls = append(walls, s.wall)
			traced = append(traced, t)
		}
	}
	r.emitObserved(traced, median(walls))
	return nil
}
