package integration

import (
	"testing"
	"testing/quick"

	"graphz/internal/algo/chialgo"
	"graphz/internal/algo/plain"
	"graphz/internal/algo/xsalgo"
	"graphz/internal/gen"
	"graphz/internal/graph"
)

// TestQuickBFSAllEngines fuzzes the baselines' BFS against the reference
// on random graph shapes (power-law, uniform, with self-loops and duplicate
// edges); FuzzEngineOracle does the same for GraphZ.
func TestQuickBFSAllEngines(t *testing.T) {
	check := func(seed uint64, shape uint8) bool {
		var edges []graph.Edge
		switch shape % 3 {
		case 0:
			edges = gen.RMAT(7, 400+int(seed%400), gen.NaturalRMAT, seed)
		case 1:
			edges = gen.ErdosRenyi(60+int(seed%100), 300, seed)
		default:
			edges = gen.Zipf(80+int(seed%80), 500, 0.8, seed)
		}
		if len(edges) == 0 {
			return true
		}
		w := buildWorld(t, edges, 4)
		srcOld := w.n2o[0]
		want := plain.BFS(w.adj, srcOld)

		_, chi, err := chialgo.BFS(w.chi, chiOpts(), srcOld)
		if err != nil {
			t.Logf("graphchi: %v", err)
			return false
		}
		_, xs, err := xsalgo.BFS(w.xs, xsOpts(), srcOld)
		if err != nil {
			t.Logf("xstream: %v", err)
			return false
		}
		for old := 0; old < w.n; old++ {
			if chi[old] != want[old] || xs[old] != want[old] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestQuickCCPartitionsAgree fuzzes the baselines' component labels against
// the reference on random symmetrized graphs; FuzzEngineOracle does the same
// for GraphZ.
func TestQuickCCPartitionsAgree(t *testing.T) {
	check := func(seed uint64) bool {
		base := gen.ErdosRenyi(50+int(seed%60), 60+int(seed%60), seed)
		w := buildWorld(t, symmetrize(base), 4)
		want := plain.ConnectedComponents(w.adj)
		_, chi, err := chialgo.ConnectedComponents(w.chi, chiOpts())
		if err != nil {
			return false
		}
		_, xs, err := xsalgo.ConnectedComponents(w.xs, xsOpts())
		if err != nil {
			return false
		}
		for v := 0; v < w.n; v++ {
			if chi[v] != want[v] || xs[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}
