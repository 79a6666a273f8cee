package core

import (
	"slices"
	"sync"
	"testing"

	"graphz/internal/gen"
)

// The resident-sharing split (SharedGraph / SharedAdjacency) under
// concurrent engines — the core side of the graphz-serve subsystem. (One
// engine over a shared adjacency, another engine served by the cache it
// filled, cancellation and the options New refuses are FuzzEngineSeams's.)

// TestSharedGraphConcurrentEngines is the -race sharing test: five
// engines run simultaneously over one shared immutable graph and one
// shared adjacency cache, each with its own runtime-file prefix, and
// every one must produce vertex states byte-identical to a solo run of
// the same configuration.
func TestSharedGraphConcurrentEngines(t *testing.T) {
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 81)
	g := buildDOS(t, edges)
	sg := NewSharedGraph(g)

	// Mixed configurations: different budgets (hence partition counts)
	// and scheduling paths, so the engines hit the shared cache with
	// different slice boundaries at the same time.
	configs := []Options{
		{MemoryBudget: 256 << 20, DynamicMessages: true},
		{MemoryBudget: budgetForPartitions(g, 8, 3, 256), DynamicMessages: true, MsgBufferBytes: 256},
		{MemoryBudget: budgetForPartitions(g, 8, 5, 256), DynamicMessages: true, MsgBufferBytes: 256},
		{MemoryBudget: 256 << 20, DynamicMessages: false},
		{MemoryBudget: budgetForPartitions(g, 8, 4, 256), DynamicMessages: true, MsgBufferBytes: 256},
	}

	// Solo references, one per configuration, on private engines.
	type soloOut struct {
		res  Result
		vals []minVal
	}
	solos := make([]soloOut, len(configs))
	for i, o := range configs {
		res, vals := runMinLabel(t, g, o)
		solos[i] = soloOut{res, vals}
	}

	var wg sync.WaitGroup
	outVals := make([][]minVal, len(configs))
	outRes := make([]Result, len(configs))
	errs := make([]error, len(configs))
	for i, o := range configs {
		wg.Add(1)
		go func(i int, o Options) {
			defer wg.Done()
			o.Name = "job-" + string(rune('a'+i))
			o.SharedAdjacency = sg.Adjacency()
			outRes[i], outVals[i], errs[i] = minLabelRun(sg.View(), minLabel{}, o)
		}(i, o)
	}
	wg.Wait()

	for i := range configs {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		if got, want := counterFields(outRes[i]), counterFields(solos[i].res); got != want {
			t.Errorf("engine %d counters %v, solo %v", i, got, want)
		}
		if !slices.Equal(outVals[i], solos[i].vals) {
			t.Fatalf("engine %d states %+v, solo %+v", i, outVals[i], solos[i].vals)
		}
	}
	if !sg.Adjacency().Filled() {
		t.Error("shared adjacency not filled after concurrent runs")
	}
}
