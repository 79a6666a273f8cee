package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"graphz/internal/gen"
	"graphz/internal/obs"
)

type spanEvent struct {
	TS     int64  `json:"ts"`
	Engine string `json:"engine"`
	Stage  string `json:"stage"`
	Iter   int    `json:"iter"`
	Part   int    `json:"part"`
	DurNS  int64  `json:"dur_ns"`
}

func parseSpans(t *testing.T, buf *bytes.Buffer) []spanEvent {
	t.Helper()
	var out []spanEvent
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var e spanEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

// TestEngineObservability runs a multi-partition spilling workload with a
// registry and tracer attached and checks the full contract: a span for
// every (iteration, partition, stage) — the drain stage only where a drain
// applied pending messages — counters that agree with Result, and one
// IterStats row per iteration.
func TestEngineObservability(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 22)
	g := buildDOS(t, edges)
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	tr := obs.NewTracer(&traceBuf)
	res, _ := runMinLabel(t, g, Options{
		MemoryBudget:    budgetForPartitions(g, 8, 4, 64),
		DynamicMessages: true,
		MsgBufferBytes:  64,
		Obs:             reg,
		Trace:           tr,
	})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if res.Partitions < 2 {
		t.Fatalf("partitions = %d, want >= 2", res.Partitions)
	}

	// Every (iteration, partition, stage) combination emitted a span.
	have := make(map[spanEvent]bool)
	var drainSpans int64
	for _, e := range parseSpans(t, &traceBuf) {
		if e.Engine != "graphz" {
			t.Fatalf("span engine = %q", e.Engine)
		}
		have[spanEvent{Engine: e.Engine, Stage: e.Stage, Iter: e.Iter, Part: e.Part}] = true
		if e.Stage == obs.StageDrain {
			drainSpans++
		}
	}
	stages := []string{obs.StageSio, obs.StageDispatch, obs.StageWorker}
	for iter := 0; iter < res.Iterations; iter++ {
		for p := 0; p < res.Partitions; p++ {
			for _, st := range stages {
				key := spanEvent{Engine: "graphz", Stage: st, Iter: iter, Part: p}
				if !have[key] {
					t.Errorf("missing span iter=%d part=%d stage=%s", iter, p, st)
				}
			}
		}
	}

	// Counters agree with the Result the engine returned.
	checks := map[string]int64{
		"graphz_messages_inline_total":   res.MessagesInline,
		"graphz_messages_buffered_total": res.MessagesBuffered,
		"graphz_messages_spilled_total":  res.MessagesSpilled,
	}
	if drainSpans == 0 {
		t.Error("no drain span on a spilling run")
	}
	for name, want := range checks {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if res.MessagesInline+res.MessagesBuffered != res.MessagesSent {
		t.Errorf("inline (%d) + buffered (%d) != sent (%d)",
			res.MessagesInline, res.MessagesBuffered, res.MessagesSent)
	}
	if res.MessagesSpilled == 0 {
		t.Error("expected spills under a tight budget")
	}
	if res.Stages.Worker <= 0 || res.Stages.Drain <= 0 {
		t.Errorf("stage totals not populated: %+v", res.Stages)
	}

	// One IterStats row per iteration, summing to the run totals.
	rows := reg.Iters()
	if len(rows) != res.Iterations {
		t.Fatalf("iter rows = %d, want %d", len(rows), res.Iterations)
	}
	var inline, buffered, spilled int64
	for i, row := range rows {
		if row.Iteration != i {
			t.Errorf("row %d has Iteration %d", i, row.Iteration)
		}
		inline += row.MessagesInline
		buffered += row.MessagesBuffered
		spilled += row.MessagesSpilled
	}
	if inline != res.MessagesInline || buffered != res.MessagesBuffered || spilled != res.MessagesSpilled {
		t.Errorf("row sums (%d, %d, %d) != result (%d, %d, %d)",
			inline, buffered, spilled, res.MessagesInline, res.MessagesBuffered, res.MessagesSpilled)
	}

	// Device traffic reaches the rows as per-iteration deltas: together
	// they cannot exceed what the device saw over the whole run.
	var readBytes int64
	for _, row := range rows {
		readBytes += row.DeviceReadBytes
	}
	if total := g.Device().Stats().ReadBytes; readBytes == 0 || readBytes > total {
		t.Errorf("rows read %d device bytes, device saw %d", readBytes, total)
	}
}

// TestEngineObservabilityTracerOnly: a tracer with no registry attached
// still produces every span.
func TestEngineObservabilityTracerOnly(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 23)
	g := buildDOS(t, edges)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	// Static messages keep the drain stage busy on one partition: every
	// iteration but the first has the previous one's sends to apply, and a
	// drain emits its span only when it applied something.
	res, _ := runMinLabel(t, g, Options{
		MemoryBudget:  64 << 20,
		MaxIterations: 2,
		Trace:         tr,
	})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := int64(res.Iterations*res.Partitions*3 + res.Iterations - 1); res.Partitions != 1 || tr.Spans() != want {
		t.Errorf("spans = %d over %d partition(s), want %d on one", tr.Spans(), res.Partitions, want)
	}
}

// TestEngineObservabilityAdjCacheHits checks resident-cache hit counting:
// the first iteration fills the cache, every later visit is a hit.
func TestEngineObservabilityAdjCacheHits(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 24)
	g := buildDOS(t, edges)
	reg := obs.NewRegistry()
	res, _ := runMinLabel(t, g, Options{
		MemoryBudget:    64 << 20,
		DynamicMessages: true,
		MaxIterations:   3,
		Obs:             reg,
	})
	want := int64((res.Iterations - 1) * res.Partitions)
	if got := reg.CounterValue("graphz_adjcache_hits_total"); got != want {
		t.Errorf("graphz_adjcache_hits_total = %d, want %d", got, want)
	}
}

// TestEngineResultComparableObsOff re-checks determinism with obs off:
// the zero-value Stages keeps Result comparable and identical.
func TestEngineResultComparableObsOff(t *testing.T) {
	edges := gen.RMAT(7, 800, gen.NaturalRMAT, 25)
	g := buildDOS(t, edges)
	res1, _ := runMinLabel(t, g, Options{MemoryBudget: 64 << 20, DynamicMessages: true})
	g2 := buildDOS(t, edges)
	res2, _ := runMinLabel(t, g2, Options{MemoryBudget: 64 << 20, DynamicMessages: true})
	if res1 != res2 {
		t.Errorf("results differ with obs off:\n%+v\n%+v", res1, res2)
	}
}
