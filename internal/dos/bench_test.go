package dos

import (
	"testing"

	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// BenchmarkConvert is the set-up path of the repo benchmark in small: a
// seeded R-MAT edge list through Convert at a budget that makes every
// sort form several runs of chunks well past the last-level cache's
// share, once to v1 and once through the groupvarint codec. Throughput is
// input bytes per second.
func BenchmarkConvert(b *testing.B) {
	edges := gen.RMAT(17, 1_000_000, gen.NaturalRMAT, 1)
	gv, err := storage.CodecByName("groupvarint")
	if err != nil {
		b.Fatal(err)
	}
	for _, format := range []struct {
		name  string
		codec storage.Codec
	}{{"v1", nil}, {"groupvarint", gv}} {
		b.Run(format.name, func(b *testing.B) {
			b.SetBytes(int64(len(edges)) * graph.EdgeBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := storage.NewDevice(storage.SSD, storage.Options{})
				if err := graph.WriteEdges(dev, "raw", edges); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := Convert(ConvertConfig{Dev: dev, MemoryBudget: 4 << 20, Codec: format.codec}, "raw", "g"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
