package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// Tests for the resident-sharing split (SharedGraph / SharedAdjacency)
// and run cancellation — the core side of the graphz-serve subsystem.

// runShared runs minLabel over a SharedGraph view with the shared
// adjacency attached, under its own runtime-file prefix.
func runShared(t *testing.T, sg *SharedGraph, name string, opts Options) (Result, []minVal) {
	t.Helper()
	opts.Name = name
	opts.SharedAdjacency = sg.Adjacency()
	eng, err := New[minVal, uint32](sg.View(), minLabel{}, minValCodec{}, graph.Uint32Codec{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := eng.Values()
	if err != nil {
		t.Fatal(err)
	}
	eng.Cleanup()
	return res, vals
}

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
			eng, err := New[minVal, uint32](sg.View(), minLabel{}, minValCodec{}, graph.Uint32Codec{}, o)
			if err != nil {
				errs[i] = err
				return
			}
			defer eng.Cleanup()
			res, err := eng.Run()
			if err != nil {
				errs[i] = err
				return
			}
			vals, err := eng.Values()
			if err != nil {
				errs[i] = err
				return
			}
			outRes[i], outVals[i] = res, vals
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
		for v := range solos[i].vals {
			if outVals[i][v] != solos[i].vals[v] {
				t.Fatalf("engine %d vertex %d state %+v, solo %+v", i, v, outVals[i][v], solos[i].vals[v])
			}
		}
	}
	if !sg.Adjacency().Filled() {
		t.Error("shared adjacency not filled after concurrent runs")
	}
}

// TestSharedAdjacencyFillOncePerGraph proves the serving win at the core
// layer: the second engine over a shared v2 graph performs zero edges-file
// reads and zero codec decode work — the whole open/decode cost was paid
// by the first run.
func TestSharedAdjacencyFillOncePerGraph(t *testing.T) {
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 82)
	g := buildDOSCodec(t, edges, storage.CodecGroupVarint, 0)
	sg := NewSharedGraph(g)
	dev := g.Device()
	edgesFile := DOSLayout(g).EdgesFile()

	run := func(name string) (Result, []minVal, storage.Stats) {
		before := dev.FileStats()[edgesFile]
		res, vals := runShared(t, sg, name, Options{
			MemoryBudget: 256 << 20, DynamicMessages: true, Obs: obs.NewRegistry(),
		})
		return res, vals, dev.FileStats()[edgesFile].Sub(before)
	}

	res1, vals1, io1 := run("job-1")
	if io1.ReadBytes == 0 {
		t.Fatal("first run read no edge bytes")
	}
	if res1.CodecBytesEncoded == 0 || res1.DecodeTime == 0 {
		t.Fatalf("first run decoded nothing: %+v", res1)
	}

	res2, vals2, io2 := run("job-2")
	if io2.ReadBytes != 0 || io2.ReadOps != 0 {
		t.Errorf("second run touched the edges file: %+v", io2)
	}
	if res2.CodecBytesEncoded != 0 || res2.CodecBytesRaw != 0 {
		t.Errorf("second run decoded blocks: encoded=%d raw=%d",
			res2.CodecBytesEncoded, res2.CodecBytesRaw)
	}
	for i := range vals1 {
		if vals1[i] != vals2[i] {
			t.Fatalf("vertex %d differs between shared runs", i)
		}
	}

	if got := sg.ResidentBytes(); got < sg.Adjacency().Bytes() {
		t.Errorf("ResidentBytes %d < adjacency %d", got, sg.Adjacency().Bytes())
	}
}

// cancelAfterIter cancels its context the first time iteration `at` runs
// an update; the engine must notice at the next partition boundary.
type cancelAfterIter struct {
	minLabel
	at     int
	cancel context.CancelFunc
}

func (p *cancelAfterIter) Update(ctx *Context[uint32], id graph.VertexID, v *minVal, adj []graph.VertexID) {
	if ctx.Iteration() == p.at {
		p.cancel()
	}
	p.minLabel.Update(ctx, id, v, adj)
}

func TestEngineCancellation(t *testing.T) {
	g := buildDOS(t, gen.RMAT(8, 1500, gen.NaturalRMAT, 84))

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
			Options{MemoryBudget: 64 << 20, DynamicMessages: true, Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Run()
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want to match context.Canceled too", err)
		}
	})

	t.Run("mid-run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		prog := &cancelAfterIter{at: 1, cancel: cancel}
		eng, err := New[minVal, uint32](DOSLayout(g), prog, minValCodec{}, graph.Uint32Codec{},
			Options{MemoryBudget: 64 << 20, DynamicMessages: true, Context: ctx, Name: "cancelme"})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Run()
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
		// A cancelled run leaves runtime files; Cleanup drops them.
		eng.Cleanup()
		for _, f := range g.Device().List() {
			if strings.HasPrefix(f, "cancelme.") {
				t.Errorf("runtime file %q survived Cleanup", f)
			}
		}
	})

	t.Run("cause-deadline", func(t *testing.T) {
		ctx, cancel := context.WithCancelCause(context.Background())
		cancel(context.DeadlineExceeded)
		eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
			Options{MemoryBudget: 64 << 20, DynamicMessages: true, Context: ctx})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Run()
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want ErrCancelled and DeadlineExceeded", err)
		}
	})
}

// TestInvalidOptionsSentinel: every configuration error out of New must
// match ErrInvalidOptions, so a serving API can map it to HTTP 400.
func TestInvalidOptionsSentinel(t *testing.T) {
	g := buildDOS(t, gen.RMAT(6, 200, gen.NaturalRMAT, 85))

	_, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
		Options{MemoryBudget: 0})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("zero budget: err = %v, want ErrInvalidOptions", err)
	}

	// A shared adjacency from a different graph must be rejected.
	other := buildDOS(t, gen.RMAT(6, 300, gen.NaturalRMAT, 86))
	_, err = New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
		Options{MemoryBudget: 64 << 20, SharedAdjacency: NewSharedGraph(other).Adjacency()})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("mismatched shared adjacency: err = %v, want ErrInvalidOptions", err)
	}

	// ErrMemoryBudget (infeasible plan) is NOT an options error.
	_, err = New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
		Options{MemoryBudget: 100})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("tiny budget: err = %v, want ErrMemoryBudget", err)
	}
	if errors.Is(err, ErrInvalidOptions) {
		t.Errorf("tiny budget matched ErrInvalidOptions: %v", err)
	}
}
