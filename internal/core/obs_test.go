package core

import (
	"testing"

	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
)

// TestObservedAllocs bounds what observability allocates per iteration: an
// observed run's allocations beyond the unobserved run of the same
// configuration may grow by a row, a memory sample, a pipeStats per
// partition and amortized span/row slice growth — a small constant. A
// per-iteration snapshot of every instrument coming back fails it.
func TestObservedAllocs(t *testing.T) {
	const perIteration = 4
	g := buildDOS(t, gen.RMAT(8, 1500, gen.NaturalRMAT, 74))
	// prProg marks every vertex active every round, so the run lasts
	// exactly MaxIterations.
	allocs := func(iters int, observed bool) float64 {
		return testing.AllocsPerRun(5, func() {
			opts := Options{MemoryBudget: 64 << 20, DynamicMessages: true, MaxIterations: iters}
			if observed {
				opts.Obs, opts.Trace = obs.NewRegistry(), obs.NewCollectingTracer(nil)
			}
			eng, err := New[prVal, float64](DOSLayout(g), prProg{}, prCodec{}, graph.Float64Codec{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res, err := eng.Run(); err != nil || res.Iterations != iters {
				t.Fatalf("ran %d of %d iterations: %v", res.Iterations, iters, err)
			}
			eng.Cleanup()
		})
	}
	const short, long = 8, 72
	extraShort := allocs(short, true) - allocs(short, false)
	extraLong := allocs(long, true) - allocs(long, false)
	per := (extraLong - extraShort) / (long - short)
	t.Logf("observability allocates %.2f times per extra iteration (%.0f extra over %d iterations, %.0f over %d)",
		per, extraLong, long, extraShort, short)
	if per > perIteration {
		t.Errorf("observability allocates %.2f times per extra iteration, want <= %d", per, perIteration)
	}
}
