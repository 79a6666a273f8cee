// Package obs is the runtime observability layer shared by every engine
// in the repository: a dependency-free metrics registry (atomic counters
// and gauges, plus the per-iteration rows, memory timeline and block
// heatmap a run report is built from), a JSONL span tracer, and a
// /metrics + pprof HTTP surface.
//
// Every instrument is nil-safe, so an engine resolves its counters once
// at construction and writes them unconditionally; with no registry
// attached a write is a nil check that allocates nothing (obs_test.go).
// The engines write at partition and iteration boundaries, never per
// message or per vertex (DESIGN.md §15).
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// LabelName embeds Prometheus-style labels in a series name:
// LabelName("graphz_job_iterations", "job", "j-3") returns
// `graphz_job_iterations{job="j-3"}`. The registry treats the result as an
// ordinary instrument name — there is no label-aware index — but
// WritePrometheus groups every series sharing a base name under a single
// # TYPE line, so labeled counters and gauges render as one metric family
// with many series, exactly what a scraper expects. kv alternates key,
// value; label values are escaped per the text exposition format.
func LabelName(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the text-format label escapes: backslash,
// double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// baseName strips an embedded label set: `name{...}` → `name`.
func baseName(n string) string {
	if i := strings.IndexByte(n, '{'); i >= 0 {
		return n[:i]
	}
	return n
}

// Counter is a monotonically increasing atomic counter. A nil *Counter is
// valid and ignores all writes — the disabled fast path.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge ignores writes.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named instruments and the per-iteration rows engines
// record. A nil *Registry is valid: every lookup returns a nil instrument
// and every record is dropped, which is how the engines run with
// observability disabled.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	iters    []IterStats
	mems     []MemSample // memory-budget timeline (RecordMem)
	heat     *BlockHeatmap
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		heat:     NewBlockHeatmap(),
	}
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterValue reads a counter by name; 0 when absent or r is nil.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// RecordIter appends one per-iteration breakdown row. Engines call it at
// the end of every iteration when a registry is attached.
func (r *Registry) RecordIter(row IterStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.iters = append(r.iters, row)
	r.mu.Unlock()
}

// RecordMem appends one memory-budget accounting sample. Engines call it
// at iteration boundaries when a registry is attached.
func (r *Registry) RecordMem(s MemSample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.mems = append(r.mems, s)
	r.mu.Unlock()
}

// MemSamples returns a copy of the recorded memory timeline.
func (r *Registry) MemSamples() []MemSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MemSample, len(r.mems))
	copy(out, r.mems)
	return out
}

// Heatmap returns the registry's block-level IO heatmap (nil on a nil
// registry — and a nil heatmap ignores writes, preserving the no-op
// fast path).
func (r *Registry) Heatmap() *BlockHeatmap {
	if r == nil {
		return nil
	}
	return r.heat
}

// Iters returns a copy of the recorded per-iteration rows.
func (r *Registry) Iters() []IterStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]IterStats, len(r.iters))
	copy(out, r.iters)
	return out
}

// Counters returns every counter's current value by name.
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, counters then gauges, each family under one # TYPE line.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	counters := r.Counters()
	r.mu.Lock()
	gauges := make(map[string]int64, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g.Value()
	}
	r.mu.Unlock()

	if err := writeFamilies(w, counters, "counter"); err != nil {
		return err
	}
	return writeFamilies(w, gauges, "gauge")
}

// writeFamilies renders counters or gauges grouped into metric families:
// one # TYPE line per base name, then every series of that family (the
// unlabeled series plus any LabelName variants) in sorted order. Grouping
// matters because plain sorted order interleaves families — "job_x" sorts
// between "job" and `job{...}` — and the exposition format requires each
// family's TYPE line to appear exactly once, before its first sample.
func writeFamilies(w io.Writer, vals map[string]int64, typ string) error {
	families := make(map[string][]string)
	for n := range vals {
		b := baseName(n)
		families[b] = append(families[b], n)
	}
	bases := make([]string, 0, len(families))
	for b := range families {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, b := range bases {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", b, typ); err != nil {
			return err
		}
		series := families[b]
		sort.Strings(series)
		for _, n := range series {
			if _, err := fmt.Fprintf(w, "%s %d\n", n, vals[n]); err != nil {
				return err
			}
		}
	}
	return nil
}
