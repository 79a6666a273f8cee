package core

import (
	"bytes"
	"errors"
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// Tests for the batch adjacency dispatch path: the batchReader must do
// zero allocations per vertex in steady state (the point of serving
// sub-slices of a window).

// batchDegrees is a mixed degree schedule: zero-degree vertices, degrees
// straddling refill boundaries, and one degree larger than the initial
// buffer so the grow path runs before the steady state being measured.
var batchDegrees = []uint32{1, 7, 0, 16, 3, 0, 40, 5, 2, 11}

// consumeAll drives br through the degree schedule until all n entries
// are served, checking stream order against the identity val(i) = 3*i.
func consumeAll(t *testing.T, br *batchReader, n int, check bool) {
	t.Helper()
	served := 0
	for i := 0; served < n; i++ {
		deg := batchDegrees[i%len(batchDegrees)]
		if rem := n - served; int(deg) > rem {
			deg = uint32(rem)
		}
		adj, err := br.adj(int64(served), deg)
		if err != nil {
			t.Fatal(err)
		}
		if len(adj) != int(deg) {
			t.Fatalf("adj(%d) returned %d entries", deg, len(adj))
		}
		if check {
			for j, v := range adj {
				if want := graph.VertexID(3 * (served + j)); v != want {
					t.Fatalf("entry %d = %d, want %d", served+j, v, want)
				}
			}
		}
		served += int(deg)
	}
}

// TestBatchReaderAllocs pins the acceptance criterion directly: serving
// adjacency slices out of a window allocates nothing.
func TestBatchReaderAllocs(t *testing.T) {
	const entries = 4096
	data := make([]graph.VertexID, entries)
	for i := range data {
		data[i] = graph.VertexID(3 * i)
	}
	t.Run("bulk", func(t *testing.T) {
		br := batchReader{src: &memEntryStream{data: data}}
		// First pass: checks entry order.
		consumeAll(t, &br, entries, true)
		run := func() {
			br.w, br.at = nil, 0
			consumeAll(t, &br, entries, false)
		}
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("steady-state batch dispatch allocates %.1f times per pass over %d vertices, want 0", avg, entries)
		}
	})
}

// TestBatchReaderExhaustion: demanding more entries than the stream
// holds must surface the source's exhaustion error.
func TestBatchReaderExhaustion(t *testing.T) {
	br := batchReader{src: &memEntryStream{data: make([]graph.VertexID, 2)}}
	if adj, err := br.adj(0, 0); err != nil || adj != nil {
		t.Errorf("adj(0, 0) = (%v, %v), want (nil, nil)", adj, err)
	}
	if _, err := br.adj(0, 3); !errors.Is(err, errAdjExhausted) {
		t.Errorf("adj(0, 3) over a 2-entry stream = %v, want errAdjExhausted", err)
	}
}

// TestBatchDispatchByteIdentity: on the non-commutative mix program —
// any dispatch-order perturbation changes the fixpoint bytes — the
// parallel Worker (per-chunk batch readers over per-chunk sources) gives
// the sequential run's state bytes and counters, over both a fixed-entry
// v1 graph and a block-encoded v2 graph. (parallelworker_test.go runs the
// mix program on v1 only, codec_engine_test.go runs v2 on the commutative
// min-label program only.)
func TestBatchDispatchByteIdentity(t *testing.T) {
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 83)
	for _, gr := range []struct {
		name string
		g    *dos.Graph
	}{
		{"v1", buildDOS(t, edges)},
		{"v2-groupvarint", buildDOSCodec(t, edges, storage.CodecGroupVarint, 0)},
	} {
		opts := Options{
			MemoryBudget:   budgetForPartitions(gr.g, 4, 3, 64),
			MsgBufferBytes: 64,
			MaxIterations:  4,
		}
		seqRes, seqBytes := runProg[mixVal, uint32](t, gr.g, mixProg{rounds: 4}, mixCodec{}, graph.Uint32Codec{}, opts)
		opts.WorkerParallelism = 4
		parRes, parBytes := runProg[mixVal, uint32](t, gr.g, mixProg{rounds: 4}, mixCodec{}, graph.Uint32Codec{}, opts)
		if seqRes.Partitions < 2 {
			t.Errorf("%s: only %d partitions; the test needs cross-partition dispatch", gr.name, seqRes.Partitions)
		}
		if counterFields(seqRes) != counterFields(parRes) {
			t.Errorf("%s: counters %v with workers=4, %v sequential", gr.name, counterFields(parRes), counterFields(seqRes))
		}
		if !bytes.Equal(seqBytes, parBytes) {
			t.Errorf("%s: state bytes differ between workers=4 and the sequential run", gr.name)
		}
	}
}
