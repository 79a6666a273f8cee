package graphz_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"graphz/internal/algo/graphzalgo"
	"graphz/internal/algo/plain"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// TestCommandLineTools builds the CLIs and chains them end to end:
// generate a graph, convert it to degree-ordered storage, and run two
// engines on it.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI binaries")
	}
	dir := t.TempDir()

	build := func(name string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		return bin
	}
	genTool := build("graphz-gen")
	convert := build("graphz-convert")
	run := build("graphz-run")

	graphFile := filepath.Join(dir, "g.bin")
	out, err := exec.Command(genTool, "-kind", "rmat", "-scale", "10", "-edges", "20000",
		"-seed", "3", "-out", graphFile).CombinedOutput()
	if err != nil {
		t.Fatalf("graphz-gen: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "unique degrees") {
		t.Errorf("gen output missing summary: %s", out)
	}
	// The file is the raw edge format byte for byte: what graph.WriteEdges
	// writes for the same spec and seed.
	es, err := gen.Generate(gen.Spec{Kind: "rmat", Scale: 10, Vertices: 10000, Edges: 20000,
		Skew: 0.9, Rows: 100, Cols: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", es); err != nil {
		t.Fatal(err)
	}
	want, _ := storage.ReadAllFile(dev, "raw")
	if got, err := os.ReadFile(graphFile); err != nil || !bytes.Equal(got, want) {
		t.Errorf("graphz-gen wrote %d bytes (%v), not graph.WriteEdges' %d", len(got), err, len(want))
	}

	out, err = exec.Command(convert, "-in", graphFile).CombinedOutput()
	if err != nil {
		t.Fatalf("graphz-convert: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "vertex index") {
		t.Errorf("convert output missing index stats: %s", out)
	}
	for _, suffix := range []string{".edges", ".meta", ".new2old", ".old2new"} {
		if _, err := os.Stat(filepath.Join(dir, "g.dos"+suffix)); err != nil {
			t.Errorf("converted file missing: %v", err)
		}
	}

	for _, engine := range []string{"graphz", "xstream", "graphchi"} {
		out, err = exec.Command(run, "-in", graphFile, "-algo", "pr",
			"-engine", engine, "-iters", "5", "-budget", "4194304").CombinedOutput()
		if err != nil {
			t.Fatalf("graphz-run %s: %v\n%s", engine, err, out)
		}
		if !strings.Contains(string(out), "top 5 vertices") {
			t.Errorf("%s run output missing results: %s", engine, out)
		}
	}

	// Observability flags: a live metrics endpoint plus a JSONL trace. The
	// generated graph's 1.6 MB of states exceed what the 2.5 MiB budget
	// leaves beside the pipeline buffers, so the run partitions — only a
	// partitioned run has pending messages to drain, hence drain spans.
	traceFile := filepath.Join(dir, "run.jsonl")
	out, err = exec.Command(run, "-gen", "er", "-gen-vertices", "200000", "-gen-edges", "400000",
		"-seed", "3", "-algo", "pr", "-engine", "graphz", "-iters", "5", "-budget", "2621440",
		"-metrics-addr", "127.0.0.1:0", "-trace", traceFile).CombinedOutput()
	if err != nil {
		t.Fatalf("graphz-run with obs flags: %v\n%s", err, out)
	}
	for _, want := range []string{
		"metrics: serving /metrics and /debug/pprof/",
		"per-iteration:",
		"device:",
		"sem: partitioned",
		"adjacency: streamed",
		"top 5 vertices",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("obs run output missing %q: %s", want, out)
		}
	}
	spans, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("reading trace file: %v", err)
	}
	for _, stage := range []string{"sio", "dispatch", "worker", "drain"} {
		if !strings.Contains(string(spans), `"stage":"`+stage+`"`) {
			t.Errorf("trace file missing %s spans", stage)
		}
	}

	// BFS through the run tool with an explicit source.
	out, err = exec.Command(run, "-in", graphFile, "-algo", "bfs",
		"-engine", "graphz", "-source", "0").CombinedOutput()
	if err != nil {
		t.Fatalf("graphz-run bfs: %v\n%s", err, out)
	}

	// Reuse the pre-converted DOS files instead of reconverting.
	out, err = exec.Command(run, "-in", graphFile, "-dos", filepath.Join(dir, "g.dos"),
		"-algo", "pr", "-iters", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("graphz-run -dos: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "top 5 vertices") {
		t.Errorf("-dos run output missing results: %s", out)
	}

	// Retired flags are usage errors (exit 2), not silently ignored:
	// residency — the states' and the adjacency's — follows from -budget
	// alone, there is one Worker, and the algorithm decides whether blocks
	// are scheduled selectively. So is a graphz-only flag beside another
	// engine, which names the flag, and -resume with nowhere to resume from.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sem", "off"}, "not defined: -sem"},
		{[]string{"-workers", "2"}, "not defined: -workers"},
		{[]string{"-cache-adjacency"}, "not defined: -cache-adjacency"},
		{[]string{"-selective"}, "not defined: -selective"},
		{[]string{"-resume"}, "-resume needs -checkpoint-dir"},
		{[]string{"-dos", "p", "-engine", "graphchi"}, `-dos needs -engine graphz, got "graphchi"`},
	} {
		var exit *exec.ExitError
		out, err := exec.Command(run, append([]string{"-in", graphFile}, tc.args...)...).CombinedOutput()
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("graphz-run %v: %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("graphz-run %v: output does not say %q:\n%s", tc.args, tc.want, out)
		}
	}

	// A misspelt -device is a usage error (exit 2) on every binary that
	// takes one, not a silent SSD cost model; an unknown generator names
	// the four it could have been, and the retired codec says to reconvert.
	serve := buildTool(t, dir, "graphz-serve")
	for _, tc := range []struct {
		tool string
		args []string
		exit int // 0: any failure
		want string
	}{
		{run, []string{"-in", graphFile, "-device", "sdd"}, 2, `unknown device "sdd"`},
		{convert, []string{"-in", graphFile, "-device", "sdd"}, 2, `unknown device "sdd"`},
		{serve, []string{"-in", "g=" + graphFile, "-device", "sdd"}, 2, `unknown device "sdd"`},
		{genTool, []string{"-kind", "rmatt", "-out", filepath.Join(dir, "x.bin")}, 2, `unknown generator "rmatt" (want rmat, zipf, er, or grid)`},
		{run, []string{"-gen", "rmatt"}, 0, `unknown generator "rmatt" (want rmat, zipf, er, or grid)`},
		{serve, []string{"-gen", "g=rmatt"}, 0, `unknown generator "rmatt" (want rmat, zipf, er, or grid)`},
		{convert, []string{"-in", graphFile, "-codec", "varint"}, 0, `"varint" (id 1) is retired, reconvert`},
	} {
		out, err := exec.Command(tc.tool, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || (tc.exit != 0 && exit.ExitCode() != tc.exit) {
			t.Errorf("%s %v: %v, want exit status %d\n%s", filepath.Base(tc.tool), tc.args, err, tc.exit, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s %v: output does not say %q:\n%s", filepath.Base(tc.tool), tc.args, tc.want, out)
		}
	}

	// Unknown engine errors out.
	if _, err := exec.Command(run, "-in", graphFile, "-engine", "bogus").CombinedOutput(); err == nil {
		t.Error("bogus engine should fail")
	}
}

// topValues parses the "vertex ID VALUE" lines under graphz-run's "top N
// vertices by value" heading.
func topValues(t *testing.T, out []byte) map[int]float64 {
	t.Helper()
	_, list, ok := strings.Cut(string(out), "vertices by value:\n")
	if !ok {
		t.Fatalf("no result list in:\n%s", out)
	}
	vals := map[int]float64{}
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		var id int
		var val float64
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "vertex %d %g", &id, &val); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		vals[id] = val
	}
	return vals
}

// TestRunSchedulesWhatTheAlgorithmAllows: graphz-run has no -selective. A
// frontier-safe algorithm is scheduled selectively — BFS over a grid skips
// blocks and still prints plain's levels — PageRank is not, and the output
// and the run report say which it was.
func TestRunSchedulesWhatTheAlgorithmAllows(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI binaries")
	}
	dir := t.TempDir()
	run := buildTool(t, dir, "graphz-run")
	// 159,200 entries, three 64 Ki-entry blocks. From the centre the frontier
	// is a thin ring for a few hundred iterations (from vertex 0 ascending-ID
	// inline messages finish the search in one pass).
	const side = 200
	const centre = side/2*side + side/2
	reportSays := func(file string) string {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Config map[string]string `json:"config"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Config["selective"]
	}

	bfsReport := filepath.Join(dir, "bfs.json")
	out, err := exec.Command(run, "-gen", "grid", "-gen-vertices", fmt.Sprint(side), "-algo", "bfs",
		"-source", fmt.Sprint(centre), "-top", fmt.Sprint(side*side), "-report", bfsReport).CombinedOutput()
	if err != nil {
		t.Fatalf("graphz-run bfs: %v\n%s", err, out)
	}
	var scanned, skipped int
	_, line, _ := strings.Cut(string(out), "selective: ")
	if _, err := fmt.Sscanf(line, "%d blocks scanned, %d skipped", &scanned, &skipped); err != nil || skipped == 0 {
		t.Errorf("bfs run scanned %d blocks and skipped %d (%v), want a selective: line with skips:\n%.2000s", scanned, skipped, err, out)
	}
	if got := reportSays(bfsReport); got != "true" {
		t.Errorf("bfs report says selective: %q, want true", got)
	}
	got := topValues(t, out)
	want := plain.BFS(plain.BuildAdjacency(side*side, gen.Grid(side, side)), centre)
	if len(got) != len(want) {
		t.Fatalf("bfs printed %d levels, want %d", len(got), len(want))
	}
	for v, level := range want {
		if got[v] != float64(level) {
			t.Fatalf("bfs level of vertex %d = %v, plain has %d", v, got[v], level)
		}
	}

	prReport := filepath.Join(dir, "pr.json")
	out, err = exec.Command(run, "-gen", "grid", "-gen-vertices", fmt.Sprint(side), "-algo", "pr",
		"-iters", "2", "-report", prReport).CombinedOutput()
	if err != nil {
		t.Fatalf("graphz-run pr: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "selective:") {
		t.Errorf("pr run prints a selective: line:\n%s", out)
	}
	if got := reportSays(prReport); got != "false" {
		t.Errorf("pr report says selective: %q, want false", got)
	}
}

// TestRunResumesNonSelectiveCheckpoint: graphz-run -algo cc always
// schedules selectively, and a checkpoint directory written by an engine
// with no bitmap — the paper's (StreamAdjacency), so with no activeset
// section — must still resume, to the labels an uninterrupted run prints.
// resume's all-ones fallback is what makes that so.
func TestRunResumesNonSelectiveCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI binaries")
	}
	dir := t.TempDir()
	run := buildTool(t, dir, "graphz-run")
	spec := gen.Spec{Kind: "rmat", Scale: 10, Edges: 8192, Seed: 11}
	args := []string{"-gen", spec.Kind, "-gen-scale", fmt.Sprint(spec.Scale), "-gen-edges", fmt.Sprint(spec.Edges),
		"-seed", fmt.Sprint(spec.Seed), "-algo", "cc", "-top", "2000"}

	// The old process: graphz-run's conversion, budget and engine name,
	// full streaming, killed after iteration 2 (later checkpoints removed).
	edges, err := gen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	dev := storage.NewDevice(storage.SSD, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", edges); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev, MemoryBudget: 8 << 20 / 4}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	ckDir := filepath.Join(dir, "ck")
	res, _, err := graphzalgo.ConnectedComponents(g, core.Options{
		MemoryBudget: 8 << 20, DynamicMessages: true, MaxIterations: 200, Name: "graphz-cc",
		StreamAdjacency: true, Checkpoint: core.CheckpointOptions{Dir: ckDir, Every: 1, Keep: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	const cut = 2
	if res.Iterations <= cut {
		t.Fatalf("cc took %d iterations; the resume needs more than %d", res.Iterations, cut)
	}
	for it := cut + 1; it <= res.Iterations; it++ {
		os.RemoveAll(filepath.Join(ckDir, fmt.Sprintf("ckpt-%010d", it)))
	}
	if sections, err := filepath.Glob(filepath.Join(ckDir, "*", "activeset*")); err != nil || len(sections) != 0 {
		t.Fatalf("the full-streaming run wrote a bitmap: %v %v", sections, err)
	}

	want, err := exec.Command(run, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("graphz-run cc: %v\n%s", err, want)
	}
	got, err := exec.Command(run, append(args, "-checkpoint-dir", ckDir, "-resume")...).CombinedOutput()
	if err != nil {
		t.Fatalf("graphz-run cc -resume: %v\n%s", err, got)
	}
	if say := fmt.Sprintf("checkpoint: resuming from iteration %d", cut); !strings.Contains(string(got), say) {
		t.Errorf("resumed run does not say %q:\n%.1000s", say, got)
	}
	if !strings.Contains(string(got), "selective: ") {
		t.Errorf("resumed run was not scheduled selectively:\n%.1000s", got)
	}
	_, wantList, _ := strings.Cut(string(want), "vertices by value:")
	_, gotList, _ := strings.Cut(string(got), "vertices by value:")
	if wantList == "" || gotList != wantList {
		t.Errorf("resumed labels differ from the uninterrupted run's:\n%.600s\nwant:\n%.600s", gotList, wantList)
	}
}

// buildTool compiles one CLI into dir.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// exportHostileGraph generates a graph, exports it with graphz-convert,
// and returns the raw file, the export prefix, and a function that
// overwrites one adjacency entry of the exported .edges file with
// 0xFFFFFFFF — a destination no graph has — returning its byte offset.
func exportHostileGraph(t *testing.T, dir string) (graphFile, prefix string, corrupt func() int64) {
	t.Helper()
	graphFile = filepath.Join(dir, "g.bin")
	if out, err := exec.Command(buildTool(t, dir, "graphz-gen"), "-kind", "rmat", "-scale", "9",
		"-edges", "5000", "-seed", "5", "-out", graphFile).CombinedOutput(); err != nil {
		t.Fatalf("graphz-gen: %v\n%s", err, out)
	}
	if out, err := exec.Command(buildTool(t, dir, "graphz-convert"), "-in", graphFile).CombinedOutput(); err != nil {
		t.Fatalf("graphz-convert: %v\n%s", err, out)
	}
	prefix = filepath.Join(dir, "g.dos")
	return graphFile, prefix, func() int64 {
		const off = 4 * 10
		f, err := os.OpenFile(prefix+".edges", os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, off); err != nil {
			t.Fatal(err)
		}
		return off
	}
}

// checkRejected asserts a CLI refused a hostile graph the typed way: a
// non-zero exit whose message names the edges file and the byte offset of
// the bad entry, and no panic trace.
func checkRejected(t *testing.T, tool string, err error, out []byte, off int64) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s accepted an edges file with an out-of-range entry:\n%s", tool, out)
	}
	if want := fmt.Sprintf(".edges@%d", off); !strings.Contains(string(out), want) {
		t.Errorf("%s error does not name the edges file and offset (%q):\n%s", tool, want, out)
	}
	if strings.Contains(string(out), "panic:") || strings.Contains(string(out), "goroutine ") {
		t.Errorf("%s panicked on a hostile graph file:\n%s", tool, out)
	}
}

// TestRunRejectsHostileDOSFiles: graphz-run -dos loads host files it did
// not write; an out-of-range adjacency entry must fail verification, not
// index vertex state.
func TestRunRejectsHostileDOSFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI binaries")
	}
	dir := t.TempDir()
	run := buildTool(t, dir, "graphz-run")
	graphFile, prefix, corrupt := exportHostileGraph(t, dir)
	args := []string{"-in", graphFile, "-dos", prefix, "-algo", "pr", "-iters", "3"}
	if out, err := exec.Command(run, args...).CombinedOutput(); err != nil {
		t.Fatalf("graphz-run on the unmodified export: %v\n%s", err, out)
	}
	off := corrupt()
	out, err := exec.Command(run, args...).CombinedOutput()
	checkRejected(t, "graphz-run", err, out, off)
}

// TestServeRejectsHostileGraphFiles: graphz-serve -graph must verify
// before it registers the graph and starts listening — nothing in the
// daemon recovers a panicking job.
func TestServeRejectsHostileGraphFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI binaries")
	}
	dir := t.TempDir()
	serve := buildTool(t, dir, "graphz-serve")
	_, prefix, corrupt := exportHostileGraph(t, dir)
	// boot runs the daemon until it either exits or prints its serving
	// line (then it is interrupted); it returns everything it printed.
	boot := func() (served bool, out []byte, err error) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, serve, "-addr", "127.0.0.1:0", "-graph", "g="+prefix)
		var buf lockedBuffer
		cmd.Stdout, cmd.Stderr = &buf, &buf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		for {
			select {
			case err := <-done:
				return served, buf.Bytes(), err
			case <-time.After(20 * time.Millisecond):
				if !served && strings.Contains(string(buf.Bytes()), "serving on") {
					served = true
					cmd.Process.Signal(os.Interrupt) //nolint:errcheck
				}
			}
		}
	}
	if served, out, err := boot(); !served || err != nil {
		t.Fatalf("graphz-serve on the unmodified export: served=%v err=%v\n%s", served, err, out)
	}
	off := corrupt()
	served, out, err := boot()
	if served {
		t.Errorf("graphz-serve started listening with a hostile graph registered")
	}
	checkRejected(t, "graphz-serve", err, out, off)
}

// lockedBuffer is a bytes.Buffer safe to read while a child process
// writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}
