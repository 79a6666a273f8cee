package plain

// PageRankInOrder is the reference for the GraphZ engine's PageRank: the
// program of graphzalgo/pagerank.go executed in memory, vertices in
// ascending ID order, every vote applied at once. The engine defers a vote
// to a non-resident partition until that partition loads, which is before
// the destination's next update, so any partitioning under dynamic messages
// gives this result up to float32 summation order. PageRank cannot referee
// a fixed-iteration run of the engine: it is synchronous, and after 5 to 10
// iterations the two differ by 7 % to 90 % on single vertices.
func PageRankInOrder(a *Adjacency, iterations int, damping float64) []float64 {
	rank := make([]float64, a.N)
	votes := make([]float64, a.N)
	for i := range rank {
		rank[i] = 1
	}
	for it := 0; it < iterations; it++ {
		for u, out := range a.Out {
			if it > 0 {
				rank[u] = (1 - damping) + damping*votes[u]
				votes[u] = 0
			}
			if len(out) == 0 {
				continue
			}
			share := rank[u] / float64(len(out))
			for _, v := range out {
				votes[v] += share
			}
		}
	}
	return rank
}
