// Command graphz-benchdiff is the benchmark-regression gate: it records
// `go test -bench` text output as a JSON snapshot and compares two
// snapshots, exiting non-zero when any benchmark's ns/op or allocs/op
// regressed past a threshold (or the benchmark disappeared). CI runs it
// against the committed baseline in ci/bench-baseline.json (see `make
// bench-json` and the "bench" job in .github/workflows/ci.yml).
//
// Usage:
//
//	go test -bench BenchmarkEngine ./internal/core/ | graphz-benchdiff -record -out BENCH_core.json
//	graphz-benchdiff -baseline ci/bench-baseline.json -current BENCH_core.json -threshold 0.15
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one recorded benchmark result.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Snapshot is the JSON file format.
type Snapshot struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		record    = flag.Bool("record", false, "parse `go test -bench` text from stdin and write a JSON snapshot")
		out       = flag.String("out", "", "output file for -record (default stdout)")
		baseline  = flag.String("baseline", "", "baseline snapshot to compare against")
		current   = flag.String("current", "", "current snapshot to compare")
		threshold = flag.Float64("threshold", 0.15, "allowed fractional ns/op or allocs/op regression before failing")
	)
	flag.Parse()

	switch {
	case *record:
		snap, err := parseBenchOutput(os.Stdin)
		if err != nil {
			fatalf("record: %v", err)
		}
		if dropped := snap.sanitize(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "graphz-benchdiff: record: dropped %d entries with an empty name or no positive ns/op\n", dropped)
		}
		if len(snap.Benchmarks) == 0 {
			fatalf("record: no benchmark lines found on stdin")
		}
		w := io.Writer(os.Stdout)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatalf("record: %v", err)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fatalf("record: %v", err)
		}
	case *baseline != "" && *current != "":
		base, err := readSnapshot(*baseline)
		if err != nil {
			fatalf("compare: %v", err)
		}
		cur, err := readSnapshot(*current)
		if err != nil {
			fatalf("compare: %v", err)
		}
		regressions := compare(os.Stdout, base, cur, *threshold)
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "graphz-benchdiff: %d benchmark(s) regressed beyond %.0f%%\n",
				regressions, *threshold*100)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "graphz-benchdiff: need either -record or both -baseline and -current")
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphz-benchdiff: "+format+"\n", args...)
	os.Exit(2)
}

func readSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	// A snapshot used as a gate must be well-formed: an empty-name entry
	// (a hand-edit or merge artifact) would silently "match" any other
	// empty-name entry in compare and gate nothing, so reject instead of
	// repairing here.
	for i, b := range s.Benchmarks {
		if b.Name == "" {
			return Snapshot{}, fmt.Errorf("%s: benchmark entry %d has an empty name", path, i)
		}
		// A baseline entry may leave ns/op out: it then gates allocs/op
		// alone (preprocessing's rows — their time moves 2x with the box).
		if b.NsPerOp < 0 || !(b.NsPerOp > 0 || b.AllocsPerOp > 0) {
			return Snapshot{}, fmt.Errorf("%s: benchmark %q has no positive ns/op (%v) or allocs/op", path, b.Name, b.NsPerOp)
		}
	}
	return s, nil
}

// sanitize drops malformed entries — empty names or missing ns/op — so
// -record never writes a snapshot that readSnapshot would then reject.
// It returns how many entries were dropped.
func (s *Snapshot) sanitize() int {
	kept := s.Benchmarks[:0]
	for _, b := range s.Benchmarks {
		if b.Name == "" || !(b.NsPerOp > 0) {
			continue
		}
		kept = append(kept, b)
	}
	dropped := len(s.Benchmarks) - len(kept)
	s.Benchmarks = kept
	return dropped
}

// parseBenchOutput extracts benchmark results from `go test -bench`
// text. Lines look like
//
//	BenchmarkEngine-8   100   3879178 ns/op   5849000 B/op   293 allocs/op
//
// The trailing -N on the name is the GOMAXPROCS suffix and is stripped
// so snapshots from machines with different core counts compare.
// Repeated runs of the same benchmark (-count > 1) are averaged.
func parseBenchOutput(r io.Reader) (Snapshot, error) {
	sums := make(map[string]*Benchmark)
	counts := make(map[string]int)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := stripProcSuffix(fields[0])
		// fields[1] is the iteration count; the rest are value/unit pairs.
		b := Benchmark{Name: name}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return Snapshot{}, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
				seen = true
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if !seen {
			continue
		}
		if acc, ok := sums[name]; ok {
			acc.NsPerOp += b.NsPerOp
			acc.BytesPerOp += b.BytesPerOp
			acc.AllocsPerOp += b.AllocsPerOp
		} else {
			sums[name] = &b
			order = append(order, name)
		}
		counts[name]++
	}
	if err := sc.Err(); err != nil {
		return Snapshot{}, err
	}
	var snap Snapshot
	for _, name := range order {
		b := *sums[name]
		n := float64(counts[name])
		b.NsPerOp /= n
		b.BytesPerOp /= n
		b.AllocsPerOp /= n
		snap.Benchmarks = append(snap.Benchmarks, b)
	}
	return snap, nil
}

// stripProcSuffix removes the -N GOMAXPROCS suffix from a benchmark
// name, leaving sub-benchmark paths (and names like selective=true)
// intact.
func stripProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// compare prints an aligned report of current vs baseline and returns
// the number of failures: benchmarks whose ns/op or allocs/op regressed
// beyond the threshold, or that vanished from the current run. ns/op
// moves with the machine; allocs/op does not, so it is the half of the
// gate that holds on a noisy box (each gated wherever the baseline
// recorded it: an entry without ns/op gates allocs/op alone).
// Improvements beyond the threshold are noted (refresh the baseline) but
// never fail.
func compare(w io.Writer, base, cur Snapshot, threshold float64) int {
	curBy := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	nameW := len("benchmark")
	for _, b := range base.Benchmarks {
		if len(b.Name) > nameW {
			nameW = len(b.Name)
		}
	}
	fmt.Fprintf(w, "%-*s  %12s  %12s  %8s  %8s  %s\n", nameW, "benchmark", "baseline", "current", "delta", "allocs", "verdict")
	regressions := 0
	for _, b := range base.Benchmarks {
		c, ok := curBy[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-*s  %12.0f  %12s  %8s  %8s  MISSING\n", nameW, b.Name, b.NsPerOp, "-", "-", "-")
			regressions++
			continue
		}
		delta, deltaCol := 0.0, "-"
		if b.NsPerOp > 0 {
			delta = (c.NsPerOp - b.NsPerOp) / b.NsPerOp
			deltaCol = fmt.Sprintf("%+.1f%%", delta*100)
		}
		allocs, allocsCol := 0.0, "-"
		if b.AllocsPerOp > 0 {
			allocs = (c.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp
			allocsCol = fmt.Sprintf("%+.1f%%", allocs*100)
		}
		var over []string
		if delta > threshold {
			over = append(over, "ns/op")
		}
		if allocs > threshold {
			over = append(over, "allocs/op")
		}
		verdict := "ok"
		switch {
		case len(over) > 0:
			verdict = "REGRESSION (" + strings.Join(over, ", ") + ")"
			regressions++
		case delta < -threshold || allocs < -threshold:
			verdict = "improved (consider refreshing baseline)"
		}
		fmt.Fprintf(w, "%-*s  %12.0f  %12.0f  %8s  %8s  %s\n", nameW, b.Name, b.NsPerOp, c.NsPerOp, deltaCol, allocsCol, verdict)
	}
	// New benchmarks are informational: they have no baseline to regress
	// against, and the next baseline refresh picks them up.
	var fresh []string
	for _, c := range cur.Benchmarks {
		found := false
		for _, b := range base.Benchmarks {
			if b.Name == c.Name {
				found = true
				break
			}
		}
		if !found {
			fresh = append(fresh, c.Name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		fmt.Fprintf(w, "%-*s  %12s  %12.0f  %8s  %8s  new (no baseline)\n", nameW, name, "-", curBy[name].NsPerOp, "-", "-")
	}
	return regressions
}
