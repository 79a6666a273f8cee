package bench

import (
	"fmt"
	"strings"
	"time"

	"graphz/internal/dos"
	"graphz/internal/storage"
)

// FormatTable renders a fixed-width text table.
func FormatTable(title string, header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// fmtDur renders a modeled duration compactly.
func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// fmtBytes renders a byte count with units.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// outcomeCell renders one run's runtime, or its failure.
func outcomeCell(o Outcome) string {
	if o.Failed() {
		return "FAIL"
	}
	return fmtDur(o.Runtime)
}

// HarmonicMeanSpeedup computes the harmonic mean of per-pair speedups
// base/target over the pairs where both succeeded (matching the paper's
// aggregate statistic, which skips missing entries).
func HarmonicMeanSpeedup(base, target []Outcome) float64 {
	var sum float64
	n := 0
	for i := range base {
		if i >= len(target) || base[i].Failed() || target[i].Failed() {
			continue
		}
		if target[i].Runtime <= 0 || base[i].Runtime <= 0 {
			continue
		}
		speedup := float64(base[i].Runtime) / float64(target[i].Runtime)
		sum += 1 / speedup
		n++
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(n) / sum
}

// Table1 reproduces "Lines of Code to Implement PageRank": the plain
// in-memory version, the naive out-of-core version (the role of the
// paper's 500-line C program), and the framework versions.
func Table1() string {
	rows := [][]string{
		{"in-memory",
			fmt.Sprint(MustLOC(PlainAlgoFile(PR))),
			fmt.Sprint(MustLOC(AlgoFile(GraphChi, PR))),
			fmt.Sprint(MustLOC(AlgoFile(GraphZ, PR)))},
		{"out-of-core",
			fmt.Sprint(MustLOC("internal/bench/naivepr.go")),
			fmt.Sprint(MustLOC(AlgoFile(GraphChi, PR))),
			fmt.Sprint(MustLOC(AlgoFile(GraphZ, PR)))},
	}
	return FormatTable("Table I: LOC to implement PageRank",
		[]string{"graph size", "no-framework", "GraphChi", "GraphZ"}, rows)
}

// Table2 reproduces "Time to Execute PageRank": a hand-rolled
// implementation versus the frameworks, in-memory (small graph) and
// out-of-core (large graph, 4GB-analog budget so vertex state exceeds
// memory).
func Table2() string {
	kind := storage.SSD
	inMem := NaivePageRank(Small, kind, Mem8)
	outOfCore := NaivePageRank(Large, kind, Mem4)

	chiSmall := Run(RunConfig{Scale: Small, Algo: PR, Engine: GraphChi, Kind: kind, Budget: Mem8})
	gzSmall := Run(RunConfig{Scale: Small, Algo: PR, Engine: GraphZ, Kind: kind, Budget: Mem8})
	chiLarge := Run(RunConfig{Scale: Large, Algo: PR, Engine: GraphChi, Kind: kind, Budget: Mem4})
	gzLarge := Run(RunConfig{Scale: Large, Algo: PR, Engine: GraphZ, Kind: kind, Budget: Mem4})

	rows := [][]string{
		{"in-memory (small)", fmtDur(inMem.Runtime), outcomeCell(chiSmall), outcomeCell(gzSmall)},
		{"out-of-core (large)", fmtDur(outOfCore.Runtime), outcomeCell(chiLarge), outcomeCell(gzLarge)},
	}
	return FormatTable("Table II: time to execute PageRank (10 iterations, SSD)",
		[]string{"graph size", "no-framework", "GraphChi", "GraphZ"}, rows)
}

// snapAnalog describes one Table VIII stand-in graph.
type snapAnalog struct {
	name     string
	analogOf string
	vertices int
	edges    int
	zipfS    float64
	seed     uint64
}

var snapAnalogs = []snapAnalog{
	{"pl-skitter", "as-skitter", 170_000, 1_100_000, 0.85, 21},
	{"pl-patents", "cit-patents", 370_000, 1_650_000, 0.60, 22},
	{"pl-orkut", "com-orkut", 300_000, 2_100_000, 0.75, 23},
	{"pl-twitter", "higgs-twitter", 45_000, 1_400_000, 0.95, 24},
	{"pl-wiki", "wiki-talk", 230_000, 500_000, 1.05, 25},
}

// Table8 reproduces the SNAP unique-degree survey with Zipf analogs:
// unique degrees stay orders of magnitude below vertex counts.
func Table8() string {
	var rows [][]string
	for _, a := range snapAnalogs {
		edges := zipfAnalogEdges(a)
		st := analogStats(a.name, edges)
		rows = append(rows, []string{
			a.name + " (" + a.analogOf + ")",
			fmt.Sprint(st.NumVertices),
			fmt.Sprint(st.NumEdges),
			fmt.Sprint(st.UniqueDegrees),
			fmt.Sprintf("%.4f", float64(st.UniqueDegrees)/float64(st.NumVertices)),
		})
	}
	return FormatTable("Table VIII: unique degrees of natural-graph analogs",
		[]string{"graph", "vertices", "edges", "unique degrees", "UD/V"}, rows)
}

// Table9 reproduces the per-engine LOC comparison for all six
// benchmarks.
func Table9() string {
	var rows [][]string
	for _, a := range Algos {
		rows = append(rows, []string{
			string(a),
			fmt.Sprint(MustLOC(AlgoFile(GraphChi, a))),
			fmt.Sprint(MustLOC(AlgoFile(XStream, a))),
			fmt.Sprint(MustLOC(AlgoFile(GraphZ, a))),
		})
	}
	return FormatTable("Table IX: LOC comparison of graph engines",
		[]string{"benchmark", "GraphChi", "X-Stream", "GraphZ"}, rows)
}

// Table10 reproduces the graph-properties table for the four scales.
func Table10() string {
	var rows [][]string
	for _, s := range Scales {
		st := StatsFor(s)
		rows = append(rows, []string{
			s.Name + " (" + s.AnalogOf + ")",
			fmt.Sprint(st.NumVertices),
			fmt.Sprint(st.NumEdges),
			fmtBytes(st.Bytes),
			fmt.Sprint(st.UniqueDegrees),
		})
	}
	return FormatTable("Table X: graph properties",
		[]string{"graph", "vertices", "edges", "size", "unique degrees"}, rows)
}

// Table11 reproduces the vertex index size comparison: GraphChi's
// per-vertex index versus GraphZ's per-unique-degree bucket table.
func Table11() string {
	var rows [][]string
	for _, s := range Scales {
		prep := Prep(s, FormatDOS, storageKindForAnalysis, 4, false)
		if prep.Err != nil {
			rows = append(rows, []string{s.Name, "?", "FAIL"})
			continue
		}
		g, err := dos.Load(prep.Dev, Prefix)
		if err != nil {
			rows = append(rows, []string{s.Name, "?", "FAIL"})
			continue
		}
		st := StatsFor(s)
		chiIndex := (int64(st.MaxID) + 1) * 8
		rows = append(rows, []string{
			s.Name,
			fmtBytes(chiIndex),
			fmtBytes(g.IndexBytes()),
			fmt.Sprintf("%.0fx", float64(chiIndex)/float64(g.IndexBytes())),
		})
	}
	return FormatTable("Table XI: vertex index size (PageRank)",
		[]string{"graph", "GraphChi", "GraphZ", "reduction"}, rows)
}

// Table12 reproduces the preprocessing-time comparison across devices.
func Table12() string {
	var rows [][]string
	for _, s := range Scales {
		for _, kind := range []storage.Kind{storage.HDD, storage.SSD} {
			chi := Prep(s, FormatChi, kind, 4, false)
			gz := Prep(s, FormatDOS, kind, 4, false)
			xs := Prep(s, FormatXS, kind, 4, false)
			cell := func(p *PrepResult) string {
				if p.Err != nil {
					return "FAIL"
				}
				return fmtDur(p.Time)
			}
			rows = append(rows, []string{
				s.Name, kind.String(), cell(chi), cell(gz), cell(xs),
			})
		}
	}
	return FormatTable("Table XII: preprocessing time",
		[]string{"graph", "device", "GraphChi", "GraphZ", "X-Stream"}, rows)
}

// Figure2 reproduces the in-partition message CDF for the three natural
// scales at selected top-n% cutoffs.
func Figure2() string {
	cutoffs := []int{1, 2, 5, 10, 20, 30, 50, 75, 100}
	header := []string{"top n% vertices"}
	for _, s := range []Scale{Small, Medium, Large} {
		header = append(header, s.Name)
	}
	cdfs := make([][]float64, 0, 3)
	for _, s := range []Scale{Small, Medium, Large} {
		cdf, err := InPartitionCDFFor(s, 100)
		if err != nil {
			cdf = nil
		}
		cdfs = append(cdfs, cdf)
	}
	var rows [][]string
	for _, c := range cutoffs {
		row := []string{fmt.Sprintf("%d%%", c)}
		for _, cdf := range cdfs {
			if cdf == nil {
				row = append(row, "FAIL")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", cdf[c-1]))
		}
		rows = append(rows, row)
	}
	return FormatTable("Figure 2: CDF of in-partition messages vs top-n% vertices (degree order)",
		header, rows)
}

// runtimeGrid runs all six algorithms for the given engines and renders
// a runtime table; it also reports harmonic-mean speedups of GraphZ over
// each baseline when GraphZ is among the engines.
func runtimeGrid(title string, s Scale, kind storage.Kind, budget int64, engines []Engine) string {
	header := []string{"benchmark"}
	for _, e := range engines {
		header = append(header, string(e))
	}
	outs := make(map[Engine][]Outcome)
	var rows [][]string
	for _, a := range Algos {
		row := []string{string(a)}
		for _, e := range engines {
			o := Run(RunConfig{Scale: s, Algo: a, Engine: e, Kind: kind, Budget: budget})
			outs[e] = append(outs[e], o)
			cell := outcomeCell(o)
			if !o.Failed() {
				cell += fmt.Sprintf(" (%d it)", o.Iterations)
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	table := FormatTable(title, header, rows)
	if gz, ok := outs[GraphZ]; ok {
		var b strings.Builder
		b.WriteString(table)
		for _, e := range engines {
			if e == GraphZ {
				continue
			}
			hm := HarmonicMeanSpeedup(outs[e], gz)
			if hm > 0 {
				fmt.Fprintf(&b, "harmonic-mean speedup of GraphZ over %s: %.2fx\n", e, hm)
			}
		}
		return b.String()
	}
	return table
}

// Figure5 reproduces the xlarge-graph comparison on the HDD: GraphChi
// must fail (vertex index exceeds memory) while GraphZ beats X-Stream.
func Figure5() string {
	return runtimeGrid(
		"Figure 5: run time on the xlarge graph (HDD, 8GB-analog budget)",
		XLarge, storage.HDD, Mem8,
		[]Engine{GraphChi, XStream, GraphZ})
}

// Figure6 reproduces the memory-sweep runtime grids for one scale: both
// devices, all budgets, all algorithms, all engines.
func Figure6(s Scale) string {
	var b strings.Builder
	for _, kind := range []storage.Kind{storage.HDD, storage.SSD} {
		for _, budget := range MemPresets {
			title := fmt.Sprintf("Figure 6 (%s): run times, %s, %s RAM analog",
				s.Name, kind, MemLabel(budget))
			b.WriteString(runtimeGrid(title, s, kind, budget,
				[]Engine{GraphChi, XStream, GraphZ}))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Figure7 reproduces the contribution breakdown on the large graph with
// the SSD: GraphChi vs GraphZ without DOS and DM vs GraphZ without DOS
// vs full GraphZ.
func Figure7() string {
	return runtimeGrid(
		"Figure 7: performance breakdown, large graph (SSD, 8GB-analog budget)",
		Large, storage.SSD, Mem8,
		[]Engine{GraphChi, GraphZNoDOSNoDM, GraphZNoDOS, GraphZ})
}

// Figure8 reproduces the power/energy comparison on the large graph with
// the SSD.
func Figure8() string {
	engines := []Engine{GraphChi, XStream, GraphZ}
	header := []string{"benchmark"}
	for _, e := range engines {
		header = append(header, string(e)+" W", string(e)+" J")
	}
	var rows [][]string
	for _, a := range Algos {
		row := []string{string(a)}
		for _, e := range engines {
			o := Run(RunConfig{Scale: Large, Algo: a, Engine: e, Kind: storage.SSD, Budget: Mem8})
			if o.Failed() {
				row = append(row, "FAIL", "FAIL")
				continue
			}
			row = append(row,
				fmt.Sprintf("%.1f", o.Energy.AvgPower),
				fmt.Sprintf("%.2f", o.Energy.Energy))
		}
		rows = append(rows, row)
	}
	return FormatTable("Figure 8: power (W) and energy (J), large graph (SSD, 8GB analog)",
		header, rows)
}

// Table13 reproduces the relative-energy summary: harmonic-mean ratios
// of GraphZ's energy to each baseline's across all six algorithms.
func Table13() string {
	var rows [][]string
	for _, s := range []Scale{Large, Medium, Small} {
		row := []string{s.Name}
		for _, kind := range []storage.Kind{storage.HDD, storage.SSD} {
			for _, base := range []Engine{GraphChi, XStream} {
				var sum float64
				n := 0
				for _, a := range Algos {
					gz := Run(RunConfig{Scale: s, Algo: a, Engine: GraphZ, Kind: kind, Budget: Mem8})
					b := Run(RunConfig{Scale: s, Algo: a, Engine: base, Kind: kind, Budget: Mem8})
					if gz.Failed() || b.Failed() || gz.Energy.Energy <= 0 || b.Energy.Energy <= 0 {
						continue
					}
					// Harmonic mean of energy ratios r_i =
					// gz/base: n / sum(1/r_i).
					sum += b.Energy.Energy / gz.Energy.Energy
					n++
				}
				if n == 0 {
					row = append(row, "n/a")
				} else {
					row = append(row, fmt.Sprintf("%.2f", float64(n)/sum))
				}
			}
		}
		rows = append(rows, row)
	}
	return FormatTable("Table XIII: relative energy of GraphZ (harmonic mean across benchmarks)",
		[]string{"graph", "vs GraphChi HDD", "vs X-Stream HDD", "vs GraphChi SSD", "vs X-Stream SSD"}, rows)
}

// Table14 reproduces the iterations-to-convergence comparison: the
// asynchronous engines against bulk-synchronous X-Stream.
func Table14() string {
	var rows [][]string
	for _, s := range []Scale{Small, Medium} {
		for _, a := range []Algo{SSSP, CC, BFS} {
			row := []string{s.Name, string(a)}
			for _, e := range []Engine{GraphChi, XStream, GraphZ} {
				o := Run(RunConfig{Scale: s, Algo: a, Engine: e, Kind: storage.SSD, Budget: Mem8})
				if o.Failed() {
					row = append(row, "FAIL")
				} else {
					row = append(row, fmt.Sprint(o.Iterations))
				}
			}
			rows = append(rows, row)
		}
	}
	return FormatTable("Table XIV: iterations for convergence",
		[]string{"graph", "benchmark", "GraphChi", "X-Stream", "GraphZ"}, rows)
}

// Figure9 reproduces the IO statistics for PageRank and BFS on the large
// graph.
func Figure9() string {
	var rows [][]string
	for _, a := range []Algo{PR, BFS} {
		for _, e := range []Engine{GraphChi, XStream, GraphZ} {
			o := Run(RunConfig{Scale: Large, Algo: a, Engine: e, Kind: storage.SSD, Budget: Mem8})
			if o.Failed() {
				rows = append(rows, []string{string(a), string(e), "FAIL", "FAIL", "FAIL"})
				continue
			}
			rows = append(rows, []string{
				string(a), string(e),
				fmtBytes(o.Stats.ReadBytes),
				fmtBytes(o.Stats.WriteBytes),
				fmt.Sprint(o.Stats.Seeks),
			})
		}
	}
	return FormatTable("Figure 9: external IO, large graph (SSD, 8GB analog)",
		[]string{"benchmark", "engine", "read", "written", "seeks"}, rows)
}
