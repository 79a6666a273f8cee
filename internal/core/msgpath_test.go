package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// The message path beside the seam draw: the buffer clamp no option
// reaches, and the drain's and the state round's allocation bounds. (The
// drain against the per-record one and the round through the staging buffer
// are FuzzEngineSeams's; TestApplyAllMiscountFailsRun sits by its breaker.)

// TestBufferMessageRecordLargerThanBuffer: a destination buffer made with
// exactly MsgBufferBytes capacity and then re-sliced by one record panics
// with a slice-bounds violation when a record is larger than the
// configured buffer. New clamps MsgBufferBytes high enough that the public
// API cannot reach that state, so this test drops the option below one
// record after construction — what a refactor that loses the distant
// clamp would do — and requires the buffers Run makes to take each
// oversized record and spill it whole instead.
func TestBufferMessageRecordLargerThanBuffer(t *testing.T) {
	g := buildDOS(t, gen.RMAT(7, 400, gen.NaturalRMAT, 50))
	eng := drainEngine(t, DOSLayout(g), minLabel{}, graph.U32PairCodec, graph.Uint32Codec{}, Options{MemoryBudget: 64 << 20, MsgBufferBytes: 64})
	// Shrink the buffer below one 8-byte record, then make the buffers as
	// Run does.
	eng.opts.MsgBufferBytes = 4
	eng.makeMsgBufs()
	const n = 5
	var want []byte
	for i := 0; i < n; i++ {
		eng.sendRecords([]graph.VertexID{graph.VertexID(i)}, uint32(100+i))
		want = binary.LittleEndian.AppendUint32(want, uint32(i))
		want = binary.LittleEndian.AppendUint32(want, uint32(100+i))
	}
	// Every record was bigger than the buffer, so each was spilled at once,
	// in order.
	data, err := storage.ReadAllFile(eng.dev, eng.msgFile(eng.parts.partitionOf(0)))
	if err != nil || eng.runErr != nil || eng.c.Spilled != n || !bytes.Equal(data, want) {
		t.Errorf("%d records spilled (%v, %v): the message file holds %v, want %v", eng.c.Spilled, err, eng.runErr, data, want)
	}
}

// TestDrainBoundedMemory: the spill file holds a whole iteration's
// cross-partition traffic and is not covered by the memory budget, so
// the drain must stream it: draining a file four times MemoryBudget may
// not allocate anywhere near the file size.
func TestDrainBoundedMemory(t *testing.T) {
	g := buildDOS(t, gen.RMAT(7, 400, gen.NaturalRMAT, 51))
	eng := drainEngine(t, DOSLayout(g), minLabel{}, graph.U32PairCodec, graph.Uint32Codec{}, Options{MemoryBudget: 4 << 20})
	eng.verts = make([]minVal, g.NumVertices)
	const fileBytes = 16 << 20
	records := int64(fileBytes / (4 + eng.msize))
	pendingRecords(t, eng, 0, records, 0)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	must(t, eng.drainMessages(0, 0))
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > fileBytes/16 {
		t.Errorf("drain allocated %d bytes for a %d-byte spill file; want bounded streaming", alloc, fileBytes)
	}
	if sz, _ := eng.dev.Size(eng.msgFile(0)); eng.c.Applied != records || sz != 0 {
		t.Errorf("applied %d of %d records, %d bytes left in the spill file", eng.c.Applied, records, sz)
	}
}

// ringEdges is the cheapest graph of n vertices: i → i+1, closed.
func ringEdges(n int) []graph.Edge {
	ring := make([]graph.Edge, n)
	for i := range ring {
		ring[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n)}
	}
	return ring
}

// TestStateRoundAllocs: once the staging buffer exists, loading a
// partition's states and storing them back allocates nothing that grows
// with the partition — no encode buffer per call, no stream buffers.
func TestStateRoundAllocs(t *testing.T) {
	g := buildDOS(t, ringEdges(100_000))
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, graph.U32PairCodec, graph.Uint32Codec{},
		Options{MemoryBudget: budgetForPartitions(g, 8, 4, 64), DynamicMessages: true, MsgBufferBytes: 64})
	must(t, err)
	if eng.NumPartitions() < 2 {
		t.Fatalf("%d partitions; a pinned run never reloads its states", eng.NumPartitions())
	}
	_, err = eng.dev.Create(eng.vstateFile())
	must(t, err)
	lo, hi := eng.parts.starts[0], eng.parts.starts[1]
	partition := int64(hi-lo) * int64(eng.vsize)
	if partition < 64<<10 {
		t.Fatalf("a partition of %d bytes is too small to tell", partition)
	}
	round := func(iter int) {
		must(t, eng.loadVertices(lo, hi, iter))
		must(t, eng.storeVertices(lo, hi))
	}
	round(0) // Init, the staging buffer and the file's first bytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 20
	for i := 1; i <= rounds; i++ {
		round(i)
	}
	runtime.ReadMemStats(&after)
	if per := int64(after.TotalAlloc-before.TotalAlloc) / rounds; per >= 1<<10 {
		t.Errorf("a load+store round of a %d-byte partition allocates %d bytes, want < 1 KiB", partition, per)
	}
}
