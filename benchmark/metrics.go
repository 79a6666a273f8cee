package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef is one row of the metric catalog. BENCHMARK.json lists the
// same names, units and directions (bench_test.go holds the two in
// step); moves is the prediction written down before measuring: which
// end-to-end metric the layer metric should move, and on which workload.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	moves  string  // per-layer only
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; fail_ratio is carried by the result line's
// attempted/failed counts, because the contract wants metrics that are
// never 0.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_vs_plain", unit: "ratio", better: "lower", bound: 0.25},
	{name: "jobs_per_plain_run", unit: "ratio", better: "higher", bound: 0.25},
	{name: "io_read_b_per_edge", unit: "B", better: "lower", bound: 0.01},
	{name: "io_write_b_per_edge", unit: "B", better: "lower", bound: 0.01},
	{name: "stored_b_per_edge", unit: "B", better: "lower", bound: 0.01},
}

// perLayer is the traced run's output. A metric that has no meaning on a
// workload (checkpoint.* off er-spill-pr, serve.* off serve-mix, ...)
// reads 0 there.
var perLayer = []metricDef{
	{name: "graph.write_edges_s", unit: "s", better: "lower", moves: "none (excluded from setup_s)"},

	{name: "extsort.sort_mrec_per_s", unit: "Mrec/s", better: "higher", moves: "setup_s on all, most on er-spill-pr"},
	{name: "extsort.runs", unit: "count", better: "lower", moves: "setup_s on all"},
	{name: "extsort.merge_passes", unit: "count", better: "lower", moves: "setup_s on all"},

	{name: "dos.convert_s", unit: "s", better: "lower", moves: "setup_s on all"},
	{name: "dos.convert_medges_per_s", unit: "Medges/s", better: "higher", moves: "setup_s on all"},
	{name: "dos.convert_read_b_per_edge", unit: "B", better: "lower", moves: "setup_s on all"},
	{name: "dos.convert_write_b_per_edge", unit: "B", better: "lower", moves: "setup_s on all"},
	{name: "dos.verify_s", unit: "s", better: "lower", moves: "setup_s on all"},
	{name: "dos.load_s", unit: "s", better: "lower", moves: "setup_s on all"},
	{name: "dos.index_bytes", unit: "B", better: "lower", moves: "stored_b_per_edge on all"},
	{name: "dos.unique_degrees", unit: "count", better: "lower", moves: "stored_b_per_edge on all"},
	{name: "dos.entries_scan_mentries_per_s", unit: "Mentries/s", better: "higher", moves: "run_vs_plain on stream-pr"},

	{name: "storage.seq_read_mb_per_s", unit: "MB/s", better: "higher", moves: "run_vs_plain on stream-pr (roofline row 1)"},
	{name: "storage.seq_write_mb_per_s", unit: "MB/s", better: "higher", moves: "setup_s on all; run_vs_plain on er-spill-pr"},
	{name: "storage.decode_mentries_per_s", unit: "Mentries/s", better: "higher", moves: "run_vs_plain on stream-pr; setup_s on serve-mix (cold job); none on raw workloads"},
	{name: "storage.encode_mentries_per_s", unit: "Mentries/s", better: "higher", moves: "setup_s on stream-pr, serve-mix"},
	{name: "storage.compression_ratio", unit: "ratio", better: "higher", moves: "stored_b_per_edge, io_read_b_per_edge on stream-pr"},
	{name: "storage.run_read_ops", unit: "count", better: "lower", moves: "io_read_b_per_edge on all"},
	{name: "storage.run_write_ops", unit: "count", better: "lower", moves: "io_write_b_per_edge on er-spill-pr"},
	{name: "storage.run_seeks", unit: "count", better: "lower", moves: "io_read_b_per_edge on grid-frontier-bfs"},
	{name: "storage.modeled_io_s", unit: "s", better: "lower", moves: "io_read_b_per_edge, io_write_b_per_edge on all"},

	{name: "core.iterations", unit: "count", better: "lower", moves: "run_vs_plain on grid-frontier-bfs"},
	{name: "core.partitions", unit: "count", better: "lower", moves: "run_vs_plain on er-spill-pr"},
	{name: "core.sem", unit: "bool", better: "higher", moves: "run_vs_plain on stream-pr, grid-frontier-bfs, serve-mix"},
	{name: "core.msgs_sent", unit: "count", better: "lower", moves: "run_vs_plain on all"},
	{name: "core.msg_inline_ratio", unit: "ratio", better: "higher", moves: "run_vs_plain, io_write_b_per_edge on er-spill-pr"},
	{name: "core.msg_spilled_per_edge", unit: "1/edge", better: "lower", moves: "run_vs_plain, io_write_b_per_edge on er-spill-pr; 0 elsewhere"},
	{name: "core.updates_run", unit: "count", better: "lower", moves: "run_vs_plain on grid-frontier-bfs"},
	{name: "core.blocks_scanned", unit: "count", better: "lower", moves: "io_read_b_per_edge on grid-frontier-bfs"},
	{name: "core.blocks_skipped", unit: "count", better: "higher", moves: "io_read_b_per_edge on grid-frontier-bfs"},
	{name: "core.block_skip_ratio", unit: "ratio", better: "higher", moves: "io_read_b_per_edge, run_vs_plain on grid-frontier-bfs"},
	{name: "core.stage_sio_s", unit: "s", better: "lower", moves: "run_vs_plain on stream-pr"},
	{name: "core.stage_dispatch_s", unit: "s", better: "lower", moves: "run_vs_plain on stream-pr"},
	{name: "core.stage_decode_s", unit: "s", better: "lower", moves: "run_vs_plain on stream-pr"},
	{name: "core.stage_worker_s", unit: "s", better: "lower", moves: "run_vs_plain on stream-pr, grid-frontier-bfs"},
	{name: "core.stage_drain_s", unit: "s", better: "lower", moves: "run_vs_plain on er-spill-pr; 0 elsewhere"},
	{name: "core.stage_sum_over_wall", unit: "ratio", better: "lower", moves: "none (stages overlap; attribution check)"},
	{name: "core.medges_per_s", unit: "Medges/s", better: "higher", moves: "run_vs_plain on all batch workloads"},
	{name: "core.vs_plain_ratio", unit: "ratio", better: "lower", moves: "run_vs_plain on all (yardstick 2)"},
	{name: "core.vs_seqread_ratio", unit: "ratio", better: "lower", moves: "run_vs_plain on all (yardstick 1)"},
	{name: "core.run_s_min", unit: "s", better: "lower", moves: "run_vs_plain on all"},
	{name: "core.cpu_s_per_run", unit: "s", better: "lower", moves: "run_vs_plain, jobs_per_plain_run on all"},
	{name: "core.alloc_mb_per_run", unit: "MB", better: "lower", moves: "run_vs_plain on er-spill-pr; jobs_per_plain_run on serve-mix"},
	{name: "core.allocs_per_run", unit: "count", better: "lower", moves: "run_vs_plain on er-spill-pr; jobs_per_plain_run on serve-mix"},
	{name: "core.gc_pause_ms_per_run", unit: "ms", better: "lower", moves: "run_vs_plain on all"},
	{name: "core.selective_speedup", unit: "ratio", better: "higher", moves: "run_vs_plain on grid-frontier-bfs only"},

	{name: "checkpoint.overhead_ratio", unit: "ratio", better: "lower", moves: "none today (er-spill-pr only)"},
	{name: "checkpoint.write_s_per_ckpt", unit: "s", better: "lower", moves: "none today (er-spill-pr only)"},
	{name: "checkpoint.bytes_per_ckpt", unit: "B", better: "lower", moves: "none today (er-spill-pr only)"},
	{name: "checkpoint.resume_s", unit: "s", better: "lower", moves: "none today (er-spill-pr only)"},

	{name: "obs.overhead_ratio", unit: "ratio", better: "lower", moves: "run_vs_plain, jobs_per_plain_run on serve-mix (always observed); none on batch run_vs_plain"},
	{name: "obs.report_build_s", unit: "s", better: "lower", moves: "run_vs_plain, jobs_per_plain_run on serve-mix"},
	{name: "obs.report_bytes", unit: "B", better: "lower", moves: "jobs_per_plain_run on serve-mix"},
	{name: "obs.spans_per_run", unit: "count", better: "lower", moves: "run_vs_plain on serve-mix"},

	{name: "serve.register_s", unit: "s", better: "lower", moves: "setup_s on serve-mix"},
	{name: "serve.cold_job_s", unit: "s", better: "lower", moves: "setup_s on serve-mix"},
	{name: "serve.job_s_p50.bfs", unit: "s", better: "lower", moves: "run_vs_plain, jobs_per_plain_run on serve-mix"},
	{name: "serve.job_s_p50.pr", unit: "s", better: "lower", moves: "run_vs_plain, jobs_per_plain_run on serve-mix"},
	{name: "serve.job_s_p50.sssp", unit: "s", better: "lower", moves: "run_vs_plain, jobs_per_plain_run on serve-mix"},
	{name: "serve.job_s_p95", unit: "s", better: "lower", moves: "jobs_per_plain_run on serve-mix"},
	{name: "serve.queue_wait_s_p50", unit: "s", better: "lower", moves: "run_vs_plain on serve-mix"},
	{name: "serve.queue_wait_s_p95", unit: "s", better: "lower", moves: "run_vs_plain on serve-mix"},
	{name: "serve.engine_run_s_p50", unit: "s", better: "lower", moves: "run_vs_plain, jobs_per_plain_run on serve-mix"},
	{name: "serve.post_run_s_p50", unit: "s", better: "lower", moves: "run_vs_plain, jobs_per_plain_run on serve-mix"},
	{name: "serve.http_submit_s_p50", unit: "s", better: "lower", moves: "run_vs_plain on serve-mix"},
	{name: "serve.http_result_top_s_p50", unit: "s", better: "lower", moves: "run_vs_plain on serve-mix"},
	{name: "serve.polls_per_job", unit: "count", better: "lower", moves: "run_vs_plain on serve-mix"},
	{name: "serve.result_all_s", unit: "s", better: "lower", moves: "none (not in the mix)"},
	{name: "serve.result_all_bytes", unit: "B", better: "lower", moves: "none (not in the mix)"},
	{name: "serve.metrics_scrape_s", unit: "s", better: "lower", moves: "none (not in the mix)"},
	{name: "serve.rejected", unit: "count", better: "lower", moves: "jobs_per_plain_run on serve-mix (a refusal is a failure)"},
	{name: "serve.peak_in_use_over_budget", unit: "ratio", better: "lower", moves: "none (must stay <= 1)"},
	{name: "serve.warm_edge_read_bytes", unit: "B", better: "lower", moves: "io_read_b_per_edge on serve-mix (must be 0)"},

	{name: "plain.build_adj_s", unit: "s", better: "lower", moves: "none (yardstick)"},
	{name: "plain.run_s", unit: "s", better: "lower", moves: "none (yardstick; roofline row 2)"},
	{name: "plain.medges_per_s", unit: "Medges/s", better: "higher", moves: "none (yardstick)"},

	{name: "bench.run_s", unit: "s", better: "lower", moves: "none (the absolute time behind run_vs_plain; moves with the box)"},
	{name: "bench.jobs_per_s", unit: "1/s", better: "higher", moves: "none (the absolute rate behind jobs_per_plain_run)"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower", moves: "none (traced median / untraced median)"},
	{name: "bench.gen_s", unit: "s", better: "lower", moves: "none (load generator)"},
}

// sample is one emitted metric: its value and how many measurements the
// value summarises.
type sample struct {
	value float64
	n     int
}

// results collects a run's metrics by catalog name.
type results struct {
	vals  map[string]sample
	count map[string]int // emissions per name; the test wants exactly one
}

func newResults() *results {
	return &results{vals: map[string]sample{}, count: map[string]int{}}
}

func (r *results) emit(name string, value float64, n int) {
	r.vals[name] = sample{value, n}
	r.count[name]++
}

// fillZero emits 0 for every catalog metric the workload did not report:
// the contract wants every per-layer name on every workload.
func (r *results) fillZero(defs []metricDef) {
	for _, d := range defs {
		if r.count[d.name] == 0 {
			r.emit(d.name, 0, 0)
		}
	}
}

// print writes one aligned line per metric of defs, in catalog order.
func (r *results) print(workload string, defs []metricDef) {
	for _, d := range defs {
		s, ok := r.vals[d.name]
		if !ok {
			continue
		}
		fmt.Printf("  %-14s %-34s %16.6g %-10s n=%d\n", workload, d.name, s.value, d.unit, s.n)
	}
}

// quantile is the q-quantile of xs by linear interpolation; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return median(vals)
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// ratio is a/b, or 0 when b is 0 (a metric with no base on this
// workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
