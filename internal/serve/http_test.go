package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphz/internal/dos"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// doJSON issues a request against the test server and decodes the JSON
// response into out (skipped when out is nil), returning the status.
func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPAPI(t *testing.T) {
	g, _ := buildGraph(t, 96)
	s := newServer(t, 256<<20, g)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	// Graphs and health up front.
	var graphs []GraphInfo
	if code := doJSON(t, c, "GET", ts.URL+"/graphs", nil, &graphs); code != 200 {
		t.Fatalf("GET /graphs = %d", code)
	}
	if len(graphs) != 1 || graphs[0].Name != "main" || graphs[0].AdjacencyHot {
		t.Fatalf("graphs = %+v", graphs)
	}
	if resp, err := c.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v", err)
	}

	// Submit BFS, poll to done.
	var st JobStatus
	if code := doJSON(t, c, "POST", ts.URL+"/jobs",
		SubmitRequest{Graph: "main", Algo: "bfs", Budget: 8 << 20}, &st); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	if st.ID == "" {
		t.Fatal("no job ID")
	}
	deadline := time.Now().Add(10 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID, nil, &st)
	}
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}

	// Result views: top, single vertex, full vector.
	var res JobResult
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID+"/result?top=3", nil, &res); code != 200 {
		t.Fatalf("result = %d", code)
	}
	if len(res.Top) != 3 {
		t.Fatalf("top = %+v", res.Top)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID+"/result?vertex="+
		u32s(res.Top[0].Vertex), nil, &res); code != 200 || res.Vertex == nil {
		t.Fatalf("vertex query failed: %d %+v", code, res)
	}
	// Past the ID map, the map's length, NoVertex itself, and an ID inside
	// the map that names no vertex: 400s, not a panic.
	o2n := s.graphs["main"].o2n
	for _, bad := range []int{1 << 30, len(o2n), int(graph.NoVertex), slices.Index(o2n, graph.NoVertex)} {
		if code := doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID+"/result?vertex="+strconv.Itoa(bad), nil, nil); code != 400 {
			t.Errorf("result?vertex=%d = %d, want 400", bad, code)
		}
	}
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID+"/result?all=1", nil, &res); code != 200 {
		t.Fatalf("all = %d", code)
	}
	if len(res.All) != graphs[0].Vertices {
		t.Fatalf("all returned %d values, graph has %d vertices", len(res.All), graphs[0].Vertices)
	}

	// RunReport over the API.
	var report map[string]any
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID+"/report", nil, &report); code != 200 {
		t.Fatalf("report = %d", code)
	}
	if report["engine"] != "graphz-serve" || report["schema"] == nil {
		t.Fatalf("report engine = %v, schema = %v", report["engine"], report["schema"])
	}

	// Job list, stats, metrics.
	var jobs []JobStatus
	doJSON(t, c, "GET", ts.URL+"/jobs", nil, &jobs)
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("jobs = %+v", jobs)
	}
	var stats Stats
	doJSON(t, c, "GET", ts.URL+"/stats", nil, &stats)
	if stats.Graphs != 1 || stats.JobsTotal != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"graphz_serve_jobs_running",
		"graphz_serve_budget_total_bytes",
		`graphz_serve_jobs_finished_total{state="done"} 1`,
		// The job's counters joined the per-(graph, algorithm) series.
		fmt.Sprintf(`graphz_messages_inline_total{graph="main",algo="BFS"} %.0f`,
			report["counters"].(map[string]any)["graphz_messages_inline_total"]),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Error mapping: 404, 400, invalid JSON.
	var eb errBody
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/job-999999", nil, &eb); code != 404 {
		t.Errorf("unknown job = %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/jobs",
		SubmitRequest{Graph: "main", Algo: "nope"}, &eb); code != 400 {
		t.Errorf("bad algo = %d", code)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/jobs/"+st.ID+"/result?top=-1", nil, &eb); code != 400 {
		t.Errorf("bad top = %d", code)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader("{nope"))
	r2, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 400 {
		t.Errorf("invalid JSON = %d", r2.StatusCode)
	}

	// Cancel over HTTP: terminal job → no-op with final state.
	var cst JobStatus
	if code := doJSON(t, c, "DELETE", ts.URL+"/jobs/"+st.ID, nil, &cst); code != 200 || cst.State != StateDone {
		t.Errorf("cancel terminal job: %d %+v", code, cst)
	}
}

func u32s(v uint32) string { return strconv.FormatUint(uint64(v), 10) }

// TestResultNonFiniteValues: SSSP leaves +Inf on vertices the root cannot
// reach, and JSON has no literal for it. Every result view must still be
// a 200 with a valid body — the unreached value encoded as null — where
// it used to be a 200 with no body at all.
func TestResultNonFiniteValues(t *testing.T) {
	// 0 → 1 → 2, and 3 → 0: vertex 3 is unreachable from root 0.
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 0}}
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, 256<<20, g)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	src := uint32(0)
	st := submitWait(t, s, SubmitRequest{Graph: "main", Algo: "SSSP", Budget: 8 << 20, Source: &src})
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	for _, query := range []string{"?all=1", "?vertex=3", "?top=3"} {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + st.ID + "/result" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || !json.Valid(body) {
			t.Fatalf("GET result%s = %d with body %q, want 200 and valid JSON", query, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `{"vertex":3,"value":null}`) {
			t.Errorf("GET result%s: unreached vertex 3 not encoded as null: %s", query, body)
		}
	}

	// A payload that cannot be encoded is a 500 with an error body.
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, math.Inf(1))
	var eb errBody
	if rec.Code != 500 || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == "" {
		t.Errorf("writeJSON(+Inf) = %d %q, want 500 with an error body", rec.Code, rec.Body)
	}
}

// TestSubmitBody: POST /jobs reads a bounded body holding exactly one
// JSON object. An oversized body is refused with 413 before it is
// buffered, trailing data with 400; unknown keys — the retired "sem" among
// them — stay ignored, so an old client's request still runs.
func TestSubmitBody(t *testing.T) {
	g, _ := buildGraph(t, 96)
	s := newServer(t, 256<<20, g)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"oversized", `{"graph":"` + strings.Repeat("a", 2<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"trailing data", `{"graph":"main","algo":"BFS"} junk`, http.StatusBadRequest},
		{"second object", `{"graph":"main","algo":"BFS"}{}`, http.StatusBadRequest},
		{"normal", `{"graph":"main","algo":"BFS"}` + "\n", http.StatusAccepted},
		{"retired sem key", `{"graph":"main","algo":"CC","sem":"on"}`, http.StatusAccepted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := c.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("POST /jobs = %d, want %d", resp.StatusCode, tc.code)
			}
			if tc.code != http.StatusAccepted {
				var eb errBody
				if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
					t.Errorf("error body %+v (%v), want a JSON error", eb, err)
				}
				return
			}
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if st, err = s.Wait(st.ID); err != nil || st.State != StateDone {
				t.Errorf("accepted job: %+v (%v), want done", st, err)
			}
		})
	}
	if got := s.Stats().JobsTotal; got != 2 {
		t.Errorf("%d jobs admitted, want the 2 accepted ones", got)
	}
}
