package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphz/internal/obs"
)

// sampleReport exercises every show section: identity, stages with a
// dominant-stage partition breakdown, messages/selective/codec/checkpoint
// summaries, the iteration rows, the memory timeline, hot blocks, and
// per-file IO.
func sampleReport() *obs.RunReport {
	return &obs.RunReport{
		Schema:      obs.ReportSchemaVersion,
		Engine:      "graphz",
		Algo:        "pagerank",
		Device:      "null",
		BudgetBytes: 64 << 20,
		Config:      map[string]string{"selective": "true", "input": "rmat16"},
		Counters: map[string]int64{
			"graphz_messages_inline_total":     900,
			"graphz_messages_buffered_total":   100,
			"graphz_messages_spilled_total":    25,
			"graphz_blocks_scanned_total":      60,
			"graphz_blocks_skipped_total":      40,
			"graphz_codec_bytes_raw_total":     4096,
			"graphz_codec_bytes_encoded_total": 1024,
			"graphz_codec_decode_ns_total":     500_000,
			"graphz_checkpoint_total":          2,
			"graphz_checkpoint_bytes_total":    2048,
			"graphz_checkpoint_ns_total":       750_000,
		},
		Iterations: []obs.IterStats{
			{Iteration: 0, MessagesInline: 600, MessagesBuffered: 100, MessagesSpilled: 25, DeviceReadBytes: 8192, DeviceSeeks: 2},
			{Iteration: 1, MessagesInline: 300, BlocksSkipped: 40, ActiveVertices: 17, DeviceReadBytes: 5120, DeviceWriteBytes: 512},
		},
		Memory: []obs.MemSample{
			{Iteration: 0, BudgetBytes: 64 << 20, IndexBytes: 1 << 20, VertexStateBytes: 2 << 20},
			{Iteration: 1, BudgetBytes: 64 << 20, IndexBytes: 1 << 20, VertexStateBytes: 2 << 20, SpillBytes: 4096},
		},
		Stages: []obs.StageAgg{
			{Engine: "graphz", Stage: obs.StageSio, Iter: 0, Part: 0, Spans: 1, NS: 3_000_000},
			{Engine: "graphz", Stage: obs.StageSio, Iter: 0, Part: 1, Spans: 1, NS: 5_000_000},
			{Engine: "graphz", Stage: obs.StageWorker, Iter: 0, Part: 0, Spans: 1, NS: 2_000_000},
		},
		Blocks: []obs.BlockHeat{
			{File: "graphz.edges", Block: 0, ReadBytes: 4096},
			{File: "graphz.edges", Block: 1, ReadBytes: 9216, DecodeNS: 1234},
			{File: "graphz.vstate", Block: 0, DrainMsgs: 77},
		},
		Files: map[string]obs.FileIO{
			"graphz.edges": {ReadOps: 13, ReadBytes: 13312, Seeks: 2},
		},
	}
}

func TestShowRendersAllSections(t *testing.T) {
	var buf bytes.Buffer
	show(&buf, sampleReport(), 10)
	out := buf.String()
	for _, w := range []string{
		"engine=graphz algo=pagerank device=null budget=64.00 MiB",
		"input=rmat16",
		"selective=true",
		"stages (10ms total):",
		"sio", "80.0%", // 8ms of 10ms
		"busiest sio partitions: p1=5ms p0=3ms",
		"messages: 900 inline, 100 buffered, 25 spilled",
		"selective: 60 blocks scanned, 40 skipped (40.0%)",
		"codec: 4.0 KiB raw from 1.0 KiB encoded (4.00x), decode 500µs",
		"checkpoints: 2 written, 2.0 KiB, 750µs",
		"iterations:",
		"iter  inline  buffered  spilled  blkskip  active  readB  writeB  seeks",
		"   0     600       100       25        0       0   8192       0      2",
		"   1     300         0        0       40      17   5120     512      0",
		"memory (budget 64.00 MiB):",
		"hot blocks by read_bytes:",
		"hot blocks by drain_msgs:",
		"hot blocks by decode_ns:",
		"file IO:",
		"reads 13 ops / 13.0 KiB",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("show output missing %q\n%s", w, out)
		}
	}
	// Hottest read_bytes block listed first.
	if i, j := strings.Index(out, "block 1"), strings.Index(out, "block 0"); i < 0 || j < 0 || i > j {
		t.Errorf("hot blocks not sorted by read_bytes:\n%s", out)
	}
}

func TestShowTopLimitsBlocks(t *testing.T) {
	var buf bytes.Buffer
	show(&buf, sampleReport(), 1)
	out := buf.String()
	sec := out[strings.Index(out, "hot blocks by read_bytes"):]
	sec = sec[:strings.Index(sec, "hot blocks by drain_msgs")]
	if strings.Count(sec, "graphz.edges") != 1 {
		t.Errorf("-top 1 should keep one read_bytes block:\n%s", sec)
	}
}

func TestShowEmptyReport(t *testing.T) {
	var buf bytes.Buffer
	show(&buf, &obs.RunReport{Schema: 1}, 10)
	if out := buf.String(); !strings.HasPrefix(out, "run: engine=- algo=- device=-") ||
		strings.Contains(out, "stages") {
		t.Errorf("empty report rendered sections:\n%s", out)
	}
}

func TestRenderDiff(t *testing.T) {
	d := &obs.ReportDiff{
		Stages: []obs.StageDelta{
			{Stage: obs.StageDrain, BaseNS: 1_000_000, CurNS: 5_000_000, Regressed: true},
			{Stage: obs.StageSio, BaseNS: 2_000_000, CurNS: 2_100_000},
		},
		Counters: []obs.CounterDelta{
			{Name: "graphz_messages_spilled_total", Base: 0, Cur: 640, Regressed: true},
		},
		Blocks: []obs.BlockRangeDelta{
			{File: "graphz.vstate", Metric: "drain_msgs", FirstBlock: 0, LastBlock: 3, Base: 10, Cur: 500},
			{File: "graphz.edges", Metric: "read_bytes", FirstBlock: 7, LastBlock: 7, Base: 1024, Cur: 40960},
		},
		Regressions: 4,
	}
	var buf bytes.Buffer
	renderDiff(&buf, d)
	out := buf.String()
	for _, w := range []string{
		"drain", "+400.0%", "REGRESSION",
		"sio", "+5.0%", "ok",
		"graphz_messages_spilled_total", "640",
		"regressed block ranges:",
		"blocks 0-3", "drain_msgs", "10 -> 500",
		"block 7", "read_bytes", "1024 -> 40960",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("diff output missing %q\n%s", w, out)
		}
	}
	if strings.Contains(out, "no regressions") {
		t.Errorf("regressed diff printed the all-clear:\n%s", out)
	}

	buf.Reset()
	renderDiff(&buf, &obs.ReportDiff{})
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("clean diff missing the all-clear: %q", buf.String())
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := fmtBytes(0); got != "0 B" {
		t.Errorf("fmtBytes(0) = %q", got)
	}
	if got := fmtBytes(1536); got != "1.5 KiB" {
		t.Errorf("fmtBytes(1536) = %q", got)
	}
	if got := fmtBytes(3 << 30); got != "3.00 GiB" {
		t.Errorf("fmtBytes(3GiB) = %q", got)
	}
	if got := fmtNS(1_500_000); got != "1.5ms" {
		t.Errorf("fmtNS = %q", got)
	}
	if got := pctDelta(0, 0); got != 0 {
		t.Errorf("pctDelta(0,0) = %v", got)
	}
	if got := pctDelta(0, 5); got != 100 {
		t.Errorf("pctDelta(0,5) = %v", got)
	}
}

// TestCLIRoundTrip builds the binary and drives show + diff end to end,
// checking the exit-code contract: 0 clean, 1 on regressions, 2 on usage.
func TestCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping exec test in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "graphz-report")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	base := sampleReport()
	cur := sampleReport()
	cur.Stages = append([]obs.StageAgg(nil), cur.Stages...)
	cur.Stages[0] = obs.StageAgg{Engine: "graphz", Stage: obs.StageSio, Iter: 0, Part: 0, Spans: 1, NS: 30_000_000}
	basePath := filepath.Join(dir, "base.json")
	curPath := filepath.Join(dir, "cur.json")
	if err := base.WriteFile(basePath); err != nil {
		t.Fatal(err)
	}
	if err := cur.WriteFile(curPath); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(bin, "show", basePath).CombinedOutput()
	if err != nil {
		t.Fatalf("show: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "engine=graphz") {
		t.Errorf("show output:\n%s", out)
	}

	// Identical reports: exit 0, no regressions.
	if out, err := exec.Command(bin, "diff", basePath, basePath).CombinedOutput(); err != nil {
		t.Fatalf("self-diff: %v\n%s", err, out)
	} else if !strings.Contains(string(out), "no regressions") {
		t.Errorf("self-diff output:\n%s", out)
	}

	// Regressed sio stage: exit 1 and a REGRESSION row.
	out, err = exec.Command(bin, "diff", basePath, curPath).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("regressed diff err = %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "REGRESSION") || !strings.Contains(string(out), "sio") {
		t.Errorf("regressed diff output:\n%s", out)
	}

	// A high threshold suppresses the regression.
	if out, err := exec.Command(bin, "diff", "-threshold", "20", basePath, curPath).CombinedOutput(); err != nil {
		t.Fatalf("thresholded diff: %v\n%s", err, out)
	}

	// Usage errors exit 2.
	for _, args := range [][]string{{}, {"bogus"}, {"show"}, {"diff", basePath}} {
		cmd := exec.Command(bin, args...)
		if ee, ok := cmd.Run().(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("args %v: want exit 2, got %v", args, cmd.ProcessState)
		}
	}

	// Corrupt input exits 1 with a parse error.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "show", bad)
	if ee, ok := cmd.Run().(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("corrupt report: want exit 1, got %v", cmd.ProcessState)
	}
}
