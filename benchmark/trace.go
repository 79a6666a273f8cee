package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one harness-side interval around a call into a layer. Its name
// starts with the layer ("dos.convert", "core.exec_algo"); Parent is the
// ID of the span that caused it (-1 for a root) and Op numbers the
// operation (one engine run, one served job, one set-up) it belongs to.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// newOp hands out the next operation number.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// start opens a span and returns its ID (-1 from a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, StartNS: now, EndNS: now, Parent: parent, Op: op, Workload: t.workload})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+t.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("trace: writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: closing %s: %w", path, err)
	}
	return path, nil
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it its children cover (children of concurrent clients may overlap, so
// the covered part is the union of their intervals, clipped to the
// parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// printLayerTable sums span time and self time per span name and per
// layer (the name's prefix up to the first dot).
func printLayerTable(spans []span) {
	type agg struct {
		n           int
		total, self int64
	}
	byName, byLayer := map[string]*agg{}, map[string]*agg{}
	add := func(m map[string]*agg, k string, d, s int64) {
		a := m[k]
		if a == nil {
			a = &agg{}
			m[k] = a
		}
		a.n++
		a.total += d
		a.self += s
	}
	self := selfTimes(spans)
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		add(byName, s.Name, s.EndNS-s.StartNS, self[i])
		add(byLayer, layer, s.EndNS-s.StartNS, self[i])
	}
	for _, tab := range []struct {
		title string
		m     map[string]*agg
	}{{"span", byName}, {"layer", byLayer}} {
		keys := make([]string, 0, len(tab.m))
		for k := range tab.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("  %-28s %8s %12s %12s\n", tab.title, "count", "total_s", "self_s")
		for _, k := range keys {
			a := tab.m[k]
			fmt.Printf("  %-28s %8d %12.4f %12.4f\n", k, a.n, float64(a.total)/1e9, float64(a.self)/1e9)
		}
	}
}
