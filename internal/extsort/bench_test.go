package extsort

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"graphz/internal/storage"
)

// BenchmarkSort sorts a million random records at a budget that forms
// several runs, over the two record sizes and the two key widths
// dos.Convert sorts: 20 significant bits (an ID in the low word) and 52
// (a 20-bit field in each word, the shape of the degree-then-source
// key). Throughput is input bytes per second.
func BenchmarkSort(b *testing.B) {
	const n = 1 << 20
	for _, recSz := range []int{8, 12} {
		for _, keyBits := range []int{20, 52} {
			key := func(rec []byte) uint64 { return uint64(binary.LittleEndian.Uint32(rec)) }
			if keyBits == 52 {
				key = func(rec []byte) uint64 {
					return uint64(binary.LittleEndian.Uint32(rec[4:]))<<32 | uint64(binary.LittleEndian.Uint32(rec))
				}
			}
			b.Run(fmt.Sprintf("rec=%d/keybits=%d", recSz, keyBits), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				data := make([]byte, n*recSz)
				for i := 0; i < len(data); i += 4 {
					binary.LittleEndian.PutUint32(data[i:], rng.Uint32()&(1<<20-1))
				}
				dev := storage.NewDevice(storage.SSD, storage.Options{})
				if err := storage.WriteAll(dev, "in", data); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := Sort(Config{Dev: dev, RecordSize: recSz, Key: key, MemoryBudget: 2 << 20}, "in", "out"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
