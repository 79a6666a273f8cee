package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

func TestFormatTable(t *testing.T) {
	out := FormatTable("T", []string{"a", "bb"}, [][]string{{"x", "y"}, {"long", "z"}})
	if !strings.Contains(out, "=== T ===") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	// Columns align: header and separator have the same byte width.
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("separator width %d != header width %d", len(lines[2]), len(lines[1]))
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := map[time.Duration]string{
		0:                      "0",
		500 * time.Microsecond: "500µs",
		25 * time.Millisecond:  "25.0ms",
		3 * time.Second:        "3.00s",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
	if got := fmtBytes(2048); got != "2.0KB" {
		t.Errorf("fmtBytes(2048) = %q", got)
	}
	if got := fmtBytes(3 << 20); got != "3.00MB" {
		t.Errorf("fmtBytes = %q", got)
	}
	if got := fmtBytes(5); got != "5B" {
		t.Errorf("fmtBytes = %q", got)
	}
}

func TestHarmonicMeanSpeedup(t *testing.T) {
	base := []Outcome{{Runtime: 4 * time.Second}, {Runtime: 9 * time.Second}}
	target := []Outcome{{Runtime: 2 * time.Second}, {Runtime: 3 * time.Second}}
	// Speedups 2 and 3 -> harmonic mean 2/(1/2+1/3) = 2.4.
	got := HarmonicMeanSpeedup(base, target)
	if got < 2.39 || got > 2.41 {
		t.Errorf("harmonic mean = %v, want 2.4", got)
	}
	// Failed runs are skipped.
	base[1].Err = storage.ErrNoSpace
	got = HarmonicMeanSpeedup(base, target)
	if got != 2 {
		t.Errorf("with failure skipped = %v, want 2", got)
	}
	if HarmonicMeanSpeedup(nil, nil) != 0 {
		t.Error("empty input should yield 0")
	}
}

func TestCountLOC(t *testing.T) {
	n, err := CountLOC("internal/bench/loc.go")
	if err != nil {
		t.Fatal(err)
	}
	if n < 20 {
		t.Errorf("loc.go counted at %d lines; counter is dropping code", n)
	}
	if _, err := CountLOC("no/such/file.go"); err == nil {
		t.Error("missing file should error")
	}
	// Every algorithm file referenced by the LOC tables must exist.
	for _, e := range []Engine{GraphZ, GraphChi, XStream} {
		for _, a := range Algos {
			if _, err := CountLOC(AlgoFile(e, a)); err != nil {
				t.Errorf("AlgoFile(%s, %s): %v", e, a, err)
			}
		}
	}
	for _, a := range Algos {
		if _, err := CountLOC(PlainAlgoFile(a)); err != nil {
			t.Errorf("PlainAlgoFile(%s): %v", a, err)
		}
	}
}

func TestScalesMonotone(t *testing.T) {
	prev := 0
	for _, s := range Scales {
		if s.Edges <= prev {
			t.Errorf("scale %s has %d edges, not larger than previous %d", s.Name, s.Edges, prev)
		}
		prev = s.Edges
	}
	// The paper's ratios: small fits the default budget; the rest
	// exceed it in increasing multiples.
	smallBytes := StatsFor(Small).Bytes
	if smallBytes > Mem4 {
		t.Errorf("small graph (%d B) should fit the 4GB-analog budget", smallBytes)
	}
	if StatsFor(Medium).Bytes <= DefaultBudget {
		t.Error("medium graph should exceed the default budget")
	}
	if StatsFor(XLarge).Bytes <= 10*DefaultBudget {
		t.Error("xlarge graph should be an order of magnitude over budget")
	}
}

func TestMaxDegreeVertexIsDOSZero(t *testing.T) {
	// The harness relies on DOS relabeling the max-degree vertex
	// (smallest-ID tie break) to new ID 0.
	edges := EdgesFor(Small, false)
	src := MaxDegreeVertex(edges)
	prep := Prep(Small, FormatDOS, storage.HDD, 4, false)
	if prep.Err != nil {
		t.Fatal(prep.Err)
	}
	g, err := loadDOSForTest(prep)
	if err != nil {
		t.Fatal(err)
	}
	n2o, err := g.NewToOld()
	if err != nil {
		t.Fatal(err)
	}
	if n2o[0] != src {
		t.Errorf("DOS new ID 0 is original %d, MaxDegreeVertex says %d", n2o[0], src)
	}
}

func TestInPartitionCDFProperties(t *testing.T) {
	cdf, err := InPartitionCDFFor(Small, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cdf) != 100 {
		t.Fatalf("got %d points", len(cdf))
	}
	// Monotone non-decreasing, ends at 1.
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if cdf[99] < 0.999 {
		t.Errorf("CDF(100%%) = %v, want 1", cdf[99])
	}
	// The power-law head effect the paper shows: the top 5% of
	// degree-ordered vertices already hold a large share of edges.
	if cdf[4] < 0.15 {
		t.Errorf("CDF(5%%) = %v; degree ordering should concentrate edges", cdf[4])
	}
	// And far more than a random ordering would (5%^2 = 0.25%).
	if cdf[4] < 10*0.0025 {
		t.Errorf("CDF(5%%) = %v, not above the random-order baseline", cdf[4])
	}
}

func TestNaivePageRankModel(t *testing.T) {
	inMem := NaivePageRank(Small, storage.SSD, Mem8)
	if inMem.PageMiss != 0 {
		t.Errorf("small graph fits memory; misses = %d", inMem.PageMiss)
	}
	outOfCore := NaivePageRank(Large, storage.SSD, Mem4)
	if outOfCore.PageMiss == 0 {
		t.Error("large graph under 4GB-analog budget should page")
	}
	if outOfCore.Runtime <= inMem.Runtime {
		t.Error("paging run should be slower")
	}
}

func TestRunSmokeAllEnginesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the harness end to end")
	}
	for _, e := range []Engine{GraphZ, GraphZNoDOS, GraphZNoDOSNoDM, GraphChi, XStream} {
		o := Run(RunConfig{Scale: Small, Algo: BFS, Engine: e, Kind: storage.SSD, Budget: Mem8})
		if o.Failed() {
			t.Fatalf("%s failed: %v", e, o.Err)
		}
		if o.Runtime <= 0 || o.Stats.ReadBytes == 0 {
			t.Errorf("%s: empty measurements %+v", e, o)
		}
	}
	// Memoization returns identical outcomes.
	a := Run(RunConfig{Scale: Small, Algo: BFS, Engine: GraphZ, Kind: storage.SSD, Budget: Mem8})
	b := Run(RunConfig{Scale: Small, Algo: BFS, Engine: GraphZ, Kind: storage.SSD, Budget: Mem8})
	if a.Runtime != b.Runtime || a.Stats != b.Stats {
		t.Error("memoized runs differ")
	}
}

func TestGraphChiFastFail(t *testing.T) {
	// xlarge + default budget: the index precheck must fail without
	// preprocessing (instantly).
	o := Run(RunConfig{Scale: XLarge, Algo: PR, Engine: GraphChi, Kind: storage.SSD, Budget: Mem8})
	if !o.Failed() {
		t.Fatal("GraphChi on xlarge should fail")
	}
	if o.IndexBytes == 0 {
		t.Error("failure should report the index size")
	}
}

func TestRunEmitsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the harness end to end")
	}
	for _, e := range []Engine{GraphZ, GraphChi, XStream} {
		o := Run(RunConfig{Scale: Small, Algo: BFS, Engine: e, Kind: storage.SSD, Budget: Mem8})
		if o.Failed() {
			t.Fatalf("%s failed: %v", e, o.Err)
		}
		if o.Report == nil {
			t.Fatalf("%s: successful run carries no report", e)
		}
		if o.Report.Schema != obs.ReportSchemaVersion {
			t.Errorf("%s: report schema = %d", e, o.Report.Schema)
		}
		if len(o.Report.Stages) == 0 || len(o.Report.Files) == 0 {
			t.Errorf("%s: report missing spans or file IO: %d stages, %d files",
				e, len(o.Report.Stages), len(o.Report.Files))
		}
		// The report round-trips through its wire format.
		data, err := o.Report.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ParseReport(data); err != nil {
			t.Errorf("%s: report does not round-trip: %v", e, err)
		}
	}
	// GraphZ reports carry the memory-accounting timeline and block heat.
	o := Run(RunConfig{Scale: Small, Algo: BFS, Engine: GraphZ, Kind: storage.SSD, Budget: Mem8})
	if len(o.Report.Memory) != o.Iterations || len(o.Report.Blocks) == 0 {
		t.Errorf("graphz report sections: %d memory samples (want %d), %d blocks",
			len(o.Report.Memory), o.Iterations, len(o.Report.Blocks))
	}
	// Failed runs carry none.
	if f := Run(RunConfig{Scale: XLarge, Algo: PR, Engine: GraphChi, Kind: storage.SSD, Budget: Mem8}); f.Report != nil {
		t.Error("failed run carries a report")
	}
}

// TestAlgoFrontierSafeMatchesPrograms holds Algo.FrontierSafe, which
// graphz-run reads, equal to the markers core.New reads:
// ExecAlgo under selective scheduling succeeds exactly for the algorithms
// it names, and is core.ErrInvalidOptions for the others.
func TestAlgoFrontierSafeMatchesPrograms(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", gen.RMAT(8, 1500, gen.NaturalRMAT, 5)); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev}, "raw", Prefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Algos {
		opts := core.Options{MemoryBudget: 64 << 20, DynamicMessages: true, SelectiveScheduling: true}
		_, _, err := ExecAlgo(a, core.DOSLayout(g), opts, AlgoParams{Iterations: 2})
		switch {
		case a.FrontierSafe() && err != nil:
			t.Errorf("%s says FrontierSafe, but its program is refused: %v", a, err)
		case !a.FrontierSafe() && !errors.Is(err, core.ErrInvalidOptions):
			t.Errorf("%s does not say FrontierSafe, yet selective scheduling of its program returned %v, want ErrInvalidOptions", a, err)
		}
	}
}
