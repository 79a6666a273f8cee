package dos

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"graphz/internal/extsort"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// goldenConvert is what Convert left on the device, and the device
// traffic it took to get there, at commit c2be463 — before preprocessing
// was rewritten to run at memory speed (DESIGN.md §18). One line per
// output file (name, size, first 16 hex digits of its SHA-256) and one for
// Convert's Device.Stats delta. The rewrite's contract is that none of
// this moves: the same passes write the same bytes with the same
// block-sized operations. Every case converts at extsort.MinMemoryBudget,
// so each sort of edges forms 5–19 runs and rmat's triad sort (19 runs)
// merges in two passes.
const goldenConvert = `
er/groupvarint g.edges 107992 49b5a0a4b8809847
er/groupvarint g.meta 352 66918bda99a6fb34
er/groupvarint g.new2old 32768 711e64065de6844b
er/groupvarint g.old2new 32768 7de54c045b0f9e68
er/groupvarint stats reads=49 (5661520 B) writes=47 (4570072 B) seeks=3
er/v1 g.edges 200000 9a3afd89ed0b2897
er/v1 g.meta 320 af2e490edfc91ce4
er/v1 g.new2old 32768 711e64065de6844b
er/v1 g.old2new 32768 7de54c045b0f9e68
er/v1 stats reads=49 (5661520 B) writes=47 (4662048 B) seeks=3
grid/groupvarint g.edges 55568 58864935799256d2
grid/groupvarint g.meta 112 2199f48f84c29880
grid/groupvarint g.new2old 36864 a5a61dcfae9f296f
grid/groupvarint g.old2new 36864 bace4af2d3beed96
grid/groupvarint stats reads=40 (4234752 B) writes=37 (3414912 B) seeks=3
grid/v1 g.edges 145920 1061246692c8b414
grid/v1 g.meta 80 ddde7245aa083f4e
grid/v1 g.new2old 36864 a5a61dcfae9f296f
grid/v1 g.old2new 36864 bace4af2d3beed96
grid/v1 stats reads=40 (4234752 B) writes=37 (3505232 B) seeks=3
rmat/groupvarint g.edges 143994 c848b5d11e142c80
rmat/groupvarint g.meta 2408 d56c3b2a9af194cb
rmat/groupvarint g.new2old 24916 b46bc43d262844f9
rmat/groupvarint g.old2new 32708 7e39eaa610e40db6
rmat/groupvarint stats reads=93 (12179936 B) writes=85 (9940594 B) seeks=3
rmat/v1 g.edges 400000 cdd9ee5a83db99e8
rmat/v1 g.meta 2368 430f5a5aa3b86d92
rmat/v1 g.new2old 24916 b46bc43d262844f9
rmat/v1 g.old2new 32708 7e39eaa610e40db6
rmat/v1 stats reads=93 (12179936 B) writes=86 (10196560 B) seeks=3
`

// goldenGraphs are the three shapes the repo benchmark converts, small.
func goldenGraphs() map[string][]graph.Edge {
	grid := gen.Grid(96, 96)
	r := rand.New(rand.NewSource(3))
	r.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	return map[string][]graph.Edge{
		"rmat": gen.RMAT(13, 100_000, gen.NaturalRMAT, 1),
		"er":   gen.ErdosRenyi(1<<13, 50_000, 2),
		"grid": grid,
	}
}

// TestConvertGolden pins Convert's output files and device traffic to
// the constants above.
func TestConvertGolden(t *testing.T) {
	gv, err := storage.CodecByName("groupvarint")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name, edges := range goldenGraphs() {
		for _, format := range []struct {
			name  string
			codec storage.Codec
		}{{"v1", nil}, {"groupvarint", gv}} {
			id := name + "/" + format.name
			dev := storage.NewDevice(storage.SSD, storage.Options{})
			if err := graph.WriteEdges(dev, "raw", edges); err != nil {
				t.Fatal(err)
			}
			before := dev.Stats()
			g, err := Convert(ConvertConfig{Dev: dev, MemoryBudget: extsort.MinMemoryBudget, Codec: format.codec}, "raw", "g")
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			delta := dev.Stats().Sub(before)
			if err := Verify(g); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			for _, f := range dev.List() {
				if f == "raw" {
					continue
				}
				data, err := storage.ReadAllFile(dev, f)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				got = append(got, fmt.Sprintf("%s %s %d %x", id, f, len(data), sum[:8]))
			}
			got = append(got, fmt.Sprintf("%s stats %s", id, delta))
		}
	}
	want := strings.Split(strings.TrimSpace(goldenConvert), "\n")
	seen := make(map[string]bool, len(got))
	for _, line := range got {
		seen[line] = true
	}
	ok := len(got) == len(want)
	for _, line := range want {
		if !seen[line] {
			ok = false
			t.Errorf("missing: %s", line)
		}
	}
	if !ok {
		sort.Strings(got)
		t.Errorf("Convert's files or device traffic moved; this run:\n%s", strings.Join(got, "\n"))
	}
}
