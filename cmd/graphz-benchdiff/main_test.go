package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: graphz/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkEngine-8          	     100	   3879178 ns/op	 5849000 B/op	     293 allocs/op
BenchmarkEngineObserved-8  	      90	   4650869 ns/op	 6346272 B/op	     458 allocs/op
BenchmarkEngineSelective/selective=false-8         	     100	   3625733 ns/op	 9148888 B/op	     423 allocs/op
BenchmarkEngineSelective/selective=true-8          	     120	   3307598 ns/op	 7250336 B/op	     391 allocs/op
PASS
ok  	graphz/internal/core	5.173s
`

func TestParseBenchOutput(t *testing.T) {
	snap, err := parseBenchOutput(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(snap.Benchmarks), snap)
	}
	first := snap.Benchmarks[0]
	if first.Name != "BenchmarkEngine" {
		t.Errorf("name = %q; GOMAXPROCS suffix should be stripped", first.Name)
	}
	if first.NsPerOp != 3879178 || first.BytesPerOp != 5849000 || first.AllocsPerOp != 293 {
		t.Errorf("values = %+v", first)
	}
	// Sub-benchmark names keep their path and their =true suffix.
	if got := snap.Benchmarks[3].Name; got != "BenchmarkEngineSelective/selective=true" {
		t.Errorf("sub-benchmark name = %q", got)
	}
}

func TestParseBenchOutputAveragesRepeats(t *testing.T) {
	in := `BenchmarkX-8   10   100 ns/op
BenchmarkX-8   10   300 ns/op
`
	snap, err := parseBenchOutput(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 1 || snap.Benchmarks[0].NsPerOp != 200 {
		t.Fatalf("repeat averaging: %+v", snap.Benchmarks)
	}
}

func TestParseBenchOutputNoMemStats(t *testing.T) {
	snap, err := parseBenchOutput(strings.NewReader("BenchmarkY   5   250 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 1 || snap.Benchmarks[0].NsPerOp != 250 {
		t.Fatalf("plain ns/op line: %+v", snap.Benchmarks)
	}
	if snap.Benchmarks[0].Name != "BenchmarkY" {
		t.Errorf("name without suffix = %q", snap.Benchmarks[0].Name)
	}
}

func bench(name string, ns float64) Benchmark { return Benchmark{Name: name, NsPerOp: ns} }

func TestCompareVerdicts(t *testing.T) {
	base := Snapshot{Benchmarks: []Benchmark{
		bench("A", 1000), // within threshold
		bench("B", 1000), // regression
		bench("C", 1000), // improvement
		bench("D", 1000), // missing from current
	}}
	cur := Snapshot{Benchmarks: []Benchmark{
		bench("A", 1100),
		bench("B", 1200),
		bench("C", 500),
		bench("E", 42), // new, no baseline
	}}
	var out strings.Builder
	regressions := compare(&out, base, cur, 0.15)
	if regressions != 2 {
		t.Fatalf("regressions = %d, want 2 (B regressed, D missing):\n%s", regressions, out.String())
	}
	report := out.String()
	for _, want := range []string{"REGRESSION", "MISSING", "improved", "new (no baseline)"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	if !strings.Contains(report, "+10.0%") {
		t.Errorf("report lacks A's +10.0%% delta:\n%s", report)
	}
}

// TestCompareAllocsOnlyRegression: allocs/op is gated with the same
// threshold as ns/op, on its own — a benchmark whose time held but whose
// allocations grew past the threshold fails, one exactly at it passes,
// and a baseline without memory stats gates nothing.
func TestCompareAllocsOnlyRegression(t *testing.T) {
	mem := func(name string, ns, allocs float64) Benchmark {
		return Benchmark{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
	}
	base := Snapshot{Benchmarks: []Benchmark{mem("A", 1000, 200), mem("B", 1000, 200), mem("C", 1000, 0), mem("D", 1000, 200)}}
	cur := Snapshot{Benchmarks: []Benchmark{mem("A", 1000, 231), mem("B", 900, 230), mem("C", 1000, 999), mem("D", 1000, 100)}}
	var out strings.Builder
	if got := compare(&out, base, cur, 0.15); got != 1 {
		t.Fatalf("regressions = %d, want 1 (A's allocs/op grew 15.5%%):\n%s", got, out.String())
	}
	report := out.String()
	for _, want := range []string{"REGRESSION (allocs/op)", "+15.5%", "+15.0%", "-50.0%", "improved"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
}

// TestCompareAllocsOnlyBaseline: a baseline entry without ns/op gates
// allocs/op and nothing else, however the time moved.
func TestCompareAllocsOnlyBaseline(t *testing.T) {
	base := Snapshot{Benchmarks: []Benchmark{{Name: "A", AllocsPerOp: 100}, {Name: "B", AllocsPerOp: 100}}}
	cur := Snapshot{Benchmarks: []Benchmark{{Name: "A", NsPerOp: 9e9, AllocsPerOp: 101}, {Name: "B", NsPerOp: 1, AllocsPerOp: 120}}}
	var out strings.Builder
	if got := compare(&out, base, cur, 0.15); got != 1 || !strings.Contains(out.String(), "REGRESSION (allocs/op)") {
		t.Fatalf("regressions = %d, want 1 (B's allocs/op grew 20%%):\n%s", got, out.String())
	}
}

func TestCompareExactThresholdPasses(t *testing.T) {
	base := Snapshot{Benchmarks: []Benchmark{bench("A", 1000)}}
	cur := Snapshot{Benchmarks: []Benchmark{bench("A", 1150)}}
	var out strings.Builder
	if got := compare(&out, base, cur, 0.15); got != 0 {
		t.Fatalf("exactly at threshold should pass, got %d regressions:\n%s", got, out.String())
	}
}

func TestSanitizeDropsMalformedEntries(t *testing.T) {
	s := Snapshot{Benchmarks: []Benchmark{
		bench("A", 1000),
		bench("", 500),  // empty name
		bench("B", 0),   // missing ns/op
		bench("C", -10), // negative ns/op
		bench("D", 2000),
	}}
	if dropped := s.sanitize(); dropped != 3 {
		t.Fatalf("sanitize dropped %d entries, want 3: %+v", dropped, s.Benchmarks)
	}
	if len(s.Benchmarks) != 2 || s.Benchmarks[0].Name != "A" || s.Benchmarks[1].Name != "D" {
		t.Fatalf("sanitize kept %+v, want A and D in order", s.Benchmarks)
	}
	if s.sanitize() != 0 {
		t.Error("sanitize of a clean snapshot dropped entries")
	}
}

func TestReadSnapshotRejectsMalformedEntries(t *testing.T) {
	dir := t.TempDir()
	writeSnap := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for name, body := range map[string]string{
		"good.json":        `{"benchmarks":[{"name":"BenchmarkEngine","ns_per_op":100}]}`,
		"allocs-only.json": `{"benchmarks":[{"name":"BenchmarkConvert/v1","allocs_per_op":90}]}`,
	} {
		if _, err := readSnapshot(writeSnap(name, body)); err != nil {
			t.Fatalf("%s: well-formed snapshot rejected: %v", name, err)
		}
	}
	for name, body := range map[string]string{
		"empty-name.json":  `{"benchmarks":[{"name":"","ns_per_op":100}]}`,
		"no-name.json":     `{"benchmarks":[{"ns_per_op":100}]}`,
		"zero-ns.json":     `{"benchmarks":[{"name":"BenchmarkEngine"}]}`,
		"negative-ns.json": `{"benchmarks":[{"name":"BenchmarkEngine","ns_per_op":-1,"allocs_per_op":9}]}`,
	} {
		if _, err := readSnapshot(writeSnap(name, body)); err == nil {
			t.Errorf("%s: malformed snapshot accepted", name)
		}
	}
}

func TestCompareIdenticalSnapshots(t *testing.T) {
	s := Snapshot{Benchmarks: []Benchmark{bench("A", 1000), bench("B", 2000)}}
	var out strings.Builder
	if got := compare(&out, s, s, 0.15); got != 0 {
		t.Fatalf("identical snapshots regressed: %d\n%s", got, out.String())
	}
}
