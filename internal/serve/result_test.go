package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"graphz/internal/graph"
)

// fullSortTop is the selection Result made before it kept a heap: sort
// every vertex by (value descending, new ID ascending), take the first
// top. The reference the heap must reproduce exactly.
func fullSortTop(values []float64, n2o []graph.VertexID, top int) []VertexValue {
	if top <= 0 {
		top = 10
	}
	top = min(top, len(values))
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if values[idx[a]] != values[idx[b]] {
			return values[idx[a]] > values[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := make([]VertexValue, top)
	for i := range out {
		out[i] = VertexValue{Vertex: uint32(n2o[idx[i]]), Value: values[idx[i]]}
	}
	return out
}

// TestResultTopMatchesFullSort: on vectors with heavy ties and ±Inf (what
// BFS levels and SSSP distances look like) the top-K a done job answers
// with is, entry for entry, the head of the full sort — for K below, at
// and past the vertex count, the default included.
func TestResultTopMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	s, err := New(Config{MemoryBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 9, 1000} {
		for trial := 0; trial < 20; trial++ {
			values := make([]float64, v)
			for i := range values {
				switch x := rng.Intn(20); {
				case x == 0:
					values[i] = math.Inf(1)
				case x == 1:
					values[i] = math.Inf(-1)
				case x < 12:
					values[i] = float64(rng.Intn(4)) // a few levels, many vertices each
				default:
					values[i] = rng.NormFloat64()
				}
			}
			n2o := make([]graph.VertexID, v)
			for i, old := range rng.Perm(v) {
				n2o[i] = graph.VertexID(old)
			}
			id := fmt.Sprintf("job-%d-%d", v, trial)
			s.jobs[id] = &Job{ID: id, state: StateDone, values: values, rg: &residentGraph{n2o: n2o}}
			for _, top := range []int{-1, 0, 1, 10, v, v + 5} {
				res, err := s.Result(id, top, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				if want := fullSortTop(values, n2o, top); !reflect.DeepEqual(res.Top, want) {
					t.Fatalf("V=%d top=%d: %v, the full sort says %v", v, top, res.Top, want)
				}
			}
		}
	}
}

// TestResultHoldsNoLockWhileItWorks: result reads of every kind run beside
// submissions, status polls and finishing jobs on one server — under -race
// this is the proof that Result touches only what a done job never changes
// — every call returns, and the budget invariant holds throughout.
func TestResultHoldsNoLockWhileItWorks(t *testing.T) {
	g, _ := buildGraph(t, 97)
	const jobBudget = 8 << 20
	s := newServer(t, 256<<20, g)
	first := submitWait(t, s, SubmitRequest{Graph: "main", Algo: "PR", Budget: jobBudget, Iterations: 3})
	if first.State != StateDone {
		t.Fatalf("job: %s (%s)", first.State, first.Error)
	}
	want, err := s.Result(first.ID, 10, nil, false)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer readers.Wait()
	defer close(stop)
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Result(first.ID, 10, nil, (r+i)%2 == 0)
				if err != nil {
					t.Error(err)
					return
				}
				if res.All == nil && !reflect.DeepEqual(res.Top, want.Top) {
					t.Errorf("top under load %v, alone %v", res.Top, want.Top)
					return
				}
				if res.All != nil && len(res.All) != g.NumVertices {
					t.Errorf("all under load has %d vertices, want %d", len(res.All), g.NumVertices)
					return
				}
			}
		}(r)
	}

	// Submissions and polls stay on the test goroutine: a call that never
	// returned would hang here, under the test binary's timeout.
	for i, algo := range []string{"BFS", "PR", "SSSP", "CC", "BFS", "PR"} {
		st, err := s.Submit(SubmitRequest{Graph: "main", Algo: algo, Budget: jobBudget, Iterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		for !st.State.Terminal() { // poll, as an HTTP client does
			checkInvariant(t, s)
			if st, err = s.Job(st.ID); err != nil {
				t.Fatal(err)
			}
		}
		if st.State != StateDone {
			t.Fatalf("job %d (%s): %s (%s)", i, algo, st.State, st.Error)
		}
		if _, err := s.Wait(st.ID); err != nil { // a poll can see "done" before the budget is back
			t.Fatal(err)
		}
		if _, err := s.Result(st.ID, 0, nil, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariant(t, s)
	if st := s.Stats(); st.BudgetInUse != 0 || st.JobsRunning != 0 {
		t.Errorf("budget not fully released: %+v", st)
	}
}
