package core

import (
	"testing"

	"graphz/internal/graph"
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
