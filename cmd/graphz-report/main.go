// Command graphz-report analyzes the run-report artifacts graphz-run
// -report and the bench harness emit (docs/OBSERVABILITY.md, "Run
// reports"): `show` renders one report — stage breakdown, iteration rows,
// memory-budget timeline, block-level IO hot spots — and `diff` compares
// two reports of the same configuration, localizing regressions to stages,
// counters, and block ranges. diff exits non-zero when anything regressed,
// so it can gate CI like graphz-benchdiff does for ns/op.
//
// Usage:
//
//	graphz-report show run.json [-top 10]
//	graphz-report diff base.json cur.json [-threshold 0.25] [-top 16] [-min-ns 250000] [-min-count 16]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"graphz/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "show":
		fs := flag.NewFlagSet("show", flag.ExitOnError)
		top := fs.Int("top", 10, "hot blocks and partitions to list")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "graphz-report show: need exactly one report file")
			os.Exit(2)
		}
		rep, err := obs.ReadReportFile(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		show(os.Stdout, rep, *top)
	case "diff":
		fs := flag.NewFlagSet("diff", flag.ExitOnError)
		threshold := fs.Float64("threshold", 0, "relative growth flagged as a regression (default 0.25)")
		minNS := fs.Int64("min-ns", 0, "absolute ns floor a duration increase must clear (default 250000; negative disables)")
		minCount := fs.Int64("min-count", 0, "absolute floor a count increase must clear (default 16; negative disables)")
		top := fs.Int("top", 0, "block-range regressions to report (default 16)")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "graphz-report diff: need a base and a current report file")
			os.Exit(2)
		}
		base, err := obs.ReadReportFile(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := obs.ReadReportFile(fs.Arg(1))
		if err != nil {
			fatal(err)
		}
		d := obs.DiffReports(base, cur, obs.DiffOptions{
			Threshold: *threshold, MinNS: *minNS, MinCount: *minCount, TopBlocks: *top,
		})
		renderDiff(os.Stdout, d)
		if d.Regressions > 0 {
			fmt.Fprintf(os.Stderr, "graphz-report: %d regression(s)\n", d.Regressions)
			os.Exit(1)
		}
	case "-h", "-help", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "graphz-report: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  graphz-report show <report.json> [-top N]
  graphz-report diff <base.json> <cur.json> [-threshold F] [-top N] [-min-ns N] [-min-count N]`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphz-report:", err)
	os.Exit(1)
}

// show renders one report: identity, stage breakdown, message/cache/
// checkpoint summaries, the iteration rows, the memory timeline, and the
// hottest blocks.
func show(w io.Writer, rep *obs.RunReport, top int) {
	fmt.Fprintf(w, "run: engine=%s algo=%s device=%s budget=%s\n",
		orDash(rep.Engine), orDash(rep.Algo), orDash(rep.Device), fmtBytes(rep.BudgetBytes))
	for _, k := range sortedKeys(rep.Config) {
		fmt.Fprintf(w, "  %s=%s\n", k, rep.Config[k])
	}

	showStages(w, rep)
	showEfficiency(w, rep)
	showIterations(w, rep)
	showMemory(w, rep)
	showBlocks(w, rep, top)
	showFiles(w, rep)
}

// showStages prints the span-aggregated stage wall times, largest first,
// with the busiest partitions of the dominant stage.
func showStages(w io.Writer, rep *obs.RunReport) {
	tot := rep.StageTotals()
	if len(tot) == 0 {
		return
	}
	type st struct {
		name string
		ns   int64
	}
	var stages []st
	var sum int64
	for name, ns := range tot {
		stages = append(stages, st{name, ns})
		sum += ns
	}
	sort.Slice(stages, func(i, j int) bool {
		if stages[i].ns != stages[j].ns {
			return stages[i].ns > stages[j].ns
		}
		return stages[i].name < stages[j].name
	})
	fmt.Fprintf(w, "\nstages (%s total):\n", fmtNS(sum))
	for _, s := range stages {
		pct := 0.0
		if sum > 0 {
			pct = 100 * float64(s.ns) / float64(sum)
		}
		fmt.Fprintf(w, "  %-10s  %12s  %5.1f%%\n", s.name, fmtNS(s.ns), pct)
	}
	if len(stages) > 0 {
		dom := stages[0].name
		parts := rep.PartitionTotals(dom)
		if len(parts) > 1 {
			type pt struct {
				part int
				ns   int64
			}
			var list []pt
			for p, ns := range parts {
				list = append(list, pt{p, ns})
			}
			sort.Slice(list, func(i, j int) bool { return list[i].ns > list[j].ns })
			if len(list) > 3 {
				list = list[:3]
			}
			fmt.Fprintf(w, "  busiest %s partitions:", dom)
			for _, p := range list {
				fmt.Fprintf(w, " p%d=%s", p.part, fmtNS(p.ns))
			}
			fmt.Fprintln(w)
		}
	}
}

// showEfficiency summarizes message routing, selective scheduling, the
// adjacency codec, and checkpoint overhead from the final counters.
func showEfficiency(w io.Writer, rep *obs.RunReport) {
	c := rep.Counters
	if len(c) == 0 {
		return
	}
	if inline, buffered := c["graphz_messages_inline_total"], c["graphz_messages_buffered_total"]; inline+buffered > 0 {
		fmt.Fprintf(w, "\nmessages: %d inline, %d buffered, %d spilled\n",
			inline, buffered, c["graphz_messages_spilled_total"])
	}
	if scanned, skipped := c["graphz_blocks_scanned_total"], c["graphz_blocks_skipped_total"]; scanned+skipped > 0 {
		fmt.Fprintf(w, "selective: %d blocks scanned, %d skipped (%.1f%%)\n",
			scanned, skipped, 100*float64(skipped)/float64(scanned+skipped))
	}
	if raw := c["graphz_codec_bytes_raw_total"]; raw > 0 {
		enc := c["graphz_codec_bytes_encoded_total"]
		fmt.Fprintf(w, "codec: %s raw from %s encoded (%.2fx), decode %s\n",
			fmtBytes(raw), fmtBytes(enc), float64(raw)/float64(enc),
			fmtNS(c["graphz_codec_decode_ns_total"]))
	}
	if n := c["graphz_checkpoint_total"]; n > 0 {
		fmt.Fprintf(w, "checkpoints: %d written, %s, %s\n",
			n, fmtBytes(c["graphz_checkpoint_bytes_total"]), fmtNS(c["graphz_checkpoint_ns_total"]))
	}
	if n := c["graphz_adjcache_hits_total"]; n > 0 {
		fmt.Fprintf(w, "adjacency cache: %d partition hits\n", n)
	}
}

// showMemory prints the budget-accounting timeline, one row per sampled
// iteration. Every column but spill is memory the run's own budget pays
// for — adjcache too: a cache handed in by a server is its owner's.
// showIterations prints the per-iteration rows, the table graphz-run
// prints after a run.
func showIterations(w io.Writer, rep *obs.RunReport) {
	if len(rep.Iterations) == 0 {
		return
	}
	fmt.Fprintln(w, "\niterations:")
	for _, line := range strings.Split(strings.TrimRight(obs.FormatIterTable(rep.Iterations), "\n"), "\n") {
		fmt.Fprintln(w, "  "+line)
	}
}

func showMemory(w io.Writer, rep *obs.RunReport) {
	if len(rep.Memory) == 0 {
		return
	}
	fmt.Fprintf(w, "\nmemory (budget %s):\n", fmtBytes(rep.Memory[0].BudgetBytes))
	fmt.Fprintf(w, "  %4s  %10s  %10s  %10s  %10s  %10s\n",
		"iter", "resident", "vstate", "adjcache", "msgbuf", "spill")
	for _, m := range rep.Memory {
		fmt.Fprintf(w, "  %4d  %10s  %10s  %10s  %10s  %10s\n",
			m.Iteration, fmtBytes(m.ResidentBytes()), fmtBytes(m.VertexStateBytes),
			fmtBytes(m.AdjCacheBytes), fmtBytes(m.MsgBufferBytes), fmtBytes(m.SpillBytes))
	}
	fmt.Fprintln(w, "  (adjcache: the run's own resident adjacency, on its budget; one shared by a server is the server's and reads 0)")
}

// showBlocks prints the top blocks by read traffic and, when present, by
// drain fan-in and decode time.
func showBlocks(w io.Writer, rep *obs.RunReport, top int) {
	if len(rep.Blocks) == 0 {
		return
	}
	hottest := func(metric string, get func(obs.BlockHeat) int64) {
		cells := make([]obs.BlockHeat, 0, len(rep.Blocks))
		for _, c := range rep.Blocks {
			if get(c) > 0 {
				cells = append(cells, c)
			}
		}
		if len(cells) == 0 {
			return
		}
		sort.Slice(cells, func(i, j int) bool {
			if d := get(cells[i]) - get(cells[j]); d != 0 {
				return d > 0
			}
			if cells[i].File != cells[j].File {
				return cells[i].File < cells[j].File
			}
			return cells[i].Block < cells[j].Block
		})
		if len(cells) > top {
			cells = cells[:top]
		}
		fmt.Fprintf(w, "\nhot blocks by %s:\n", metric)
		for _, c := range cells {
			fmt.Fprintf(w, "  %-20s block %-6d read_bytes=%d decode_ns=%d drain_msgs=%d\n",
				c.File, c.Block, c.ReadBytes, c.DecodeNS, c.DrainMsgs)
		}
	}
	hottest("read_bytes", func(c obs.BlockHeat) int64 { return c.ReadBytes })
	hottest("drain_msgs", func(c obs.BlockHeat) int64 { return c.DrainMsgs })
	hottest("decode_ns", func(c obs.BlockHeat) int64 { return c.DecodeNS })
}

// showFiles prints the per-file physical device traffic.
func showFiles(w io.Writer, rep *obs.RunReport) {
	if len(rep.Files) == 0 {
		return
	}
	names := make([]string, 0, len(rep.Files))
	for n := range rep.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "\nfile IO:")
	for _, n := range names {
		f := rep.Files[n]
		fmt.Fprintf(w, "  %-20s reads %d ops / %s, writes %d ops / %s, seeks %d, cache hits %d\n",
			n, f.ReadOps, fmtBytes(f.ReadBytes), f.WriteOps, fmtBytes(f.WriteBytes),
			f.Seeks, f.CacheHits)
	}
}

// renderDiff prints the stage, counter, and block-range comparison.
func renderDiff(w io.Writer, d *obs.ReportDiff) {
	if len(d.Stages) > 0 {
		fmt.Fprintf(w, "%-12s  %12s  %12s  %8s  %s\n", "stage", "base", "current", "delta", "verdict")
		for _, s := range d.Stages {
			fmt.Fprintf(w, "%-12s  %12s  %12s  %+7.1f%%  %s\n",
				s.Stage, fmtNS(s.BaseNS), fmtNS(s.CurNS), pctDelta(s.BaseNS, s.CurNS), verdict(s.Regressed))
		}
	}
	if len(d.Counters) > 0 {
		fmt.Fprintln(w)
		nameW := len("counter")
		for _, c := range d.Counters {
			if len(c.Name) > nameW {
				nameW = len(c.Name)
			}
		}
		fmt.Fprintf(w, "%-*s  %12s  %12s  %8s  %s\n", nameW, "counter", "base", "current", "delta", "verdict")
		for _, c := range d.Counters {
			fmt.Fprintf(w, "%-*s  %12d  %12d  %+7.1f%%  %s\n",
				nameW, c.Name, c.Base, c.Cur, pctDelta(c.Base, c.Cur), verdict(c.Regressed))
		}
	}
	if len(d.Blocks) > 0 {
		fmt.Fprintln(w, "\nregressed block ranges:")
		for _, b := range d.Blocks {
			span := fmt.Sprintf("block %d", b.FirstBlock)
			if b.LastBlock != b.FirstBlock {
				span = fmt.Sprintf("blocks %d-%d", b.FirstBlock, b.LastBlock)
			}
			fmt.Fprintf(w, "  %-20s %-16s %-12s %d -> %d\n", b.File, span, b.Metric, b.Base, b.Cur)
		}
	}
	if d.Regressions == 0 {
		fmt.Fprintln(w, "no regressions")
	}
}

func verdict(regressed bool) string {
	if regressed {
		return "REGRESSION"
	}
	return "ok"
}

func pctDelta(base, cur int64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return 100 * float64(cur-base) / float64(base)
}

func fmtNS(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
