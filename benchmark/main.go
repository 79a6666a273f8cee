// Command benchmark is the repository's benchmark: four workloads, each
// taken from raw edge list to checked result (or from job submission to
// checked result), measured end to end and, in a separate traced run,
// layer by layer. README.md in this directory says what is measured and
// why; BENCHMARK.json at the repository root records the contract.
//
//	go run ./benchmark -workload stream-pr -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// config is one invocation's settings; the defaults are what
// BENCHMARK.json records.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	rounds    int
	scale     string
	selfcheck bool
	outDir    string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's graph and job order are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long each workload's timed phase lasts")
	flag.IntVar(&trace, "trace", 0, "1 repeats the run with harness-side spans and prints the per-layer metrics")
	flag.IntVar(&cfg.rounds, "rounds", 0, "development: run exactly this many ops (segments) per workload instead of -seconds")
	flag.StringVar(&cfg.scale, "scale", "full", "graph sizes: full, or tiny for a smoke run")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "run the untraced suite twice and fail if the two disagree by more than a metric's bound")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for span files and checkpoint scratch")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ok, err := suite(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// suite runs the selected workloads and reports whether every op was
// correct and every workload kept its shape.
func suite(cfg config) (bool, error) {
	all, err := specs(cfg.scale)
	if err != nil {
		return false, err
	}
	var chosen []*spec
	for _, sp := range all {
		if cfg.workload == "all" || cfg.workload == sp.name {
			chosen = append(chosen, sp)
		}
	}
	if len(chosen) == 0 {
		return false, fmt.Errorf("unknown -workload %q", cfg.workload)
	}
	if cfg.selfcheck {
		return selfcheck(cfg, chosen)
	}
	ok := true
	var runs []*run
	for _, sp := range chosen {
		r, err := measure(cfg, sp)
		if err != nil {
			return false, err
		}
		ok = ok && r.correct()
		runs = append(runs, r)
	}
	if cfg.trace {
		printRoofline(runs)
	}
	// The result line of the last workload closes the output.
	for _, r := range runs {
		if err := r.printResultLine(); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// measure runs one workload and prints its metrics.
func measure(cfg config, sp *spec) (*run, error) {
	r := &run{sp: sp, cfg: cfg, res: newResults()}
	defs := endToEnd
	if cfg.trace {
		r.tr = newTracer(sp.name)
		defs = perLayer
	}
	fmt.Printf("== %s seed=%d scale=%s trace=%v ==\n", sp.name, cfg.seed, cfg.scale, cfg.trace)
	var err error
	if sp.serve != nil {
		err = r.runServe()
	} else {
		err = r.runBatch()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	r.res.fillZero(defs)
	for _, d := range defs {
		if v := r.res.vals[d.name].value; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", sp.name, d.name, v)
		}
	}
	r.res.print(sp.name, defs)
	if r.absolute != "" {
		fmt.Printf("  %-14s not gated: %s\n", sp.name, r.absolute)
	}
	fmt.Printf("  %-14s %-34s %16.6g %-10s n=%d\n", sp.name, "fail_ratio", float64(r.failed)/float64(r.attempted), "ratio", r.attempted)
	fmt.Printf("  %-14s shape_ok=%v %s\n", sp.name, r.shapeErr == "", r.shapeErr)
	if r.tr != nil {
		path, err := r.tr.write(cfg.outDir)
		if err != nil {
			return nil, err
		}
		spans := r.tr.snapshot()
		fmt.Printf("  %d spans -> %s\n", len(spans), path)
		printLayerTable(spans)
	}
	return r, nil
}

func (r *run) correct() bool { return r.failed == 0 && r.shapeErr == "" }

// printResultLine writes the contract's result object: the end-to-end
// metrics untraced, the per-layer metrics traced.
func (r *run) printResultLine() error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.name] = metric{r.res.vals[d.name].value, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printRoofline sets each workload's engine throughput beside its two
// yardsticks: the bare sequential read and the in-memory algorithm.
func printRoofline(runs []*run) {
	cols := []string{"storage.seq_read_mb_per_s", "plain.medges_per_s", "core.medges_per_s", "core.vs_plain_ratio", "core.vs_seqread_ratio"}
	fmt.Printf("roofline\n  %-18s", "workload")
	for _, c := range cols {
		fmt.Printf(" %26s", c)
	}
	fmt.Println()
	for _, r := range runs {
		fmt.Printf("  %-18s", r.sp.name)
		for _, c := range cols {
			fmt.Printf(" %26.4g", r.res.vals[c].value)
		}
		fmt.Println()
	}
}

// selfcheck runs the untraced suite twice and compares the two sets of
// end-to-end metrics against the bounds.
func selfcheck(cfg config, chosen []*spec) (bool, error) {
	cfg.trace = false
	ok := true
	var rows []string
	for _, sp := range chosen {
		var pair [2]*run
		for i := range pair {
			r, err := measure(cfg, sp)
			if err != nil {
				return false, err
			}
			ok = ok && r.correct()
			pair[i] = r
		}
		for _, d := range endToEnd {
			a, b := pair[0].res.vals[d.name].value, pair[1].res.vals[d.name].value
			diff := ratio(math.Abs(a-b), math.Min(a, b))
			verdict := "ok"
			if diff > d.bound {
				verdict, ok = "DISAGREE", false
			}
			rows = append(rows, fmt.Sprintf("  %-18s %-22s %14.6g %14.6g %9.4f %7.2f  %s", sp.name, d.name, a, b, diff, d.bound, verdict))
		}
	}
	fmt.Printf("selfcheck\n  %-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel_diff", "bound")
	for _, row := range rows {
		fmt.Println(row)
	}
	return ok, nil
}
