package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"graphz/internal/checkpoint"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// The message path beside the seam draw: the buffer clamp no option
// reaches, the drain's and the state round's allocation bounds, and a
// program that miscounts its applies. (The drain against the per-record
// one, and the round through the staging buffer, are FuzzEngineSeams's.)

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
	eng := drainEngine(t, DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{}, Options{MemoryBudget: 64 << 20, MsgBufferBytes: 64})
	// Shrink the buffer below one 8-byte record, then make the buffers as
	// Run does.
	eng.opts.MsgBufferBytes = 4
	eng.makeMsgBufs()
	const n = 5
	var want []byte
	for i := 0; i < n; i++ {
		eng.send(graph.VertexID(i), uint32(100+i)) // nothing is resident: the record writer
		want = binary.LittleEndian.AppendUint32(want, uint32(i))
		want = binary.LittleEndian.AppendUint32(want, uint32(100+i))
	}
	// Every record was bigger than the buffer, so each was spilled at once,
	// in order.
	data, err := storage.ReadAllFile(eng.dev, eng.msgFile(eng.partitionOf(0)))
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
	eng := drainEngine(t, DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{}, Options{MemoryBudget: 4 << 20})
	eng.verts = make([]minVal, g.NumVertices)
	const fileBytes = 16 << 20
	records := int64(fileBytes / (4 + eng.msize))
	pendingRecords(t, eng, 0, records, 0)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := eng.drainMessages(0, 0); err != nil {
		t.Fatal(err)
	}
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
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
		Options{MemoryBudget: budgetForPartitions(g, 8, 4, 64), DynamicMessages: true, MsgBufferBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumPartitions() < 2 {
		t.Fatalf("%d partitions; a pinned run never reloads its states", eng.NumPartitions())
	}
	if _, err := eng.dev.Create(eng.vstateFile()); err != nil {
		t.Fatal(err)
	}
	lo, hi := eng.partStarts[0], eng.partStarts[1]
	partition := int64(hi-lo) * int64(eng.vsize)
	if partition < 64<<10 {
		t.Fatalf("a partition of %d bytes is too small to tell", partition)
	}
	round := func(iter int) {
		if err := eng.loadVertices(lo, hi, iter); err != nil {
			t.Fatal(err)
		}
		if err := eng.storeVertices(lo, hi); err != nil {
			t.Fatal(err)
		}
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

// miscount is witnessLabel with hand-written delegates that apply every
// resident destination and every record and report off more: ApplyAll, or
// with records set ApplyRecords.
type miscount struct {
	witnessLabel
	off     int
	records bool
}

func (p miscount) ApplyAll(vs []witnessVal, lo graph.VertexID, dsts []graph.VertexID, m uint32) int {
	n := p.witnessLabel.ApplyAll(vs, lo, dsts, m)
	if n > 0 && !p.records {
		n += p.off
	}
	return n
}

func (p miscount) ApplyRecords(vs []witnessVal, lo graph.VertexID, recs []byte, rec int) int {
	n := p.witnessLabel.ApplyRecords(vs, lo, recs, rec)
	if n > 0 && p.records {
		n += p.off
	}
	return n
}

// TestApplyAllMiscountFailsRun: the engine learns how many messages were
// applied from the program, so a program that miscounts gets a typed error
// and no Result — not a ledger in which inline + buffered != sent. The
// ledger the aborted run publishes still adds up: it holds what the buffer
// pass and the drain found, not what the program said. ApplyAll's count is
// the one-partition route's; a partitioned run applies records, and a
// miscounting ApplyRecords stops it after iteration 0's first partition,
// at its first in-place flush — under static messages after its second,
// the first to drain.
func TestApplyAllMiscountFailsRun(t *testing.T) {
	g := buildDOS(t, gen.RMAT(8, 1500, gen.NaturalRMAT, 82))
	for _, parts := range []int64{1, 4, -4} {
		for _, off := range []int{-1, 1} {
			drain := parts < 0
			parts := max(parts, -parts)
			name := fmt.Sprintf("parts=%d/off=%+d", parts, off)
			if drain {
				name = fmt.Sprintf("drain/parts=%d/off=%+d", parts, off)
			}
			t.Run(name, func(t *testing.T) {
				reg := obs.NewRegistry()
				opts := Options{MemoryBudget: 64 << 20, DynamicMessages: !drain, MsgBufferBytes: 64, Obs: reg}
				if parts > 1 {
					opts.MemoryBudget = budgetForPartitions(g, 12, parts, 64)
				}
				eng, err := New[witnessVal, uint32](DOSLayout(g), miscount{off: off, records: parts > 1}, witnessCodec{}, graph.Uint32Codec{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run()
				if !errors.Is(err, ErrProgramContract) {
					t.Fatalf("err = %v, want ErrProgramContract", err)
				}
				if res != (Result{}) {
					t.Errorf("a failed run returned %+v", res)
				}
				first := int64(eng.partStarts[1+b2i(drain)])
				if eng.NumPartitions() != int(parts) || eng.c.Updates != first {
					t.Errorf("%d partitions, %d updates: want %d and the run stopped after the failing partition's %d",
						eng.NumPartitions(), eng.c.Updates, parts, first)
				}
				checkLedgerViews(t, eng, reg, checkpoint.Counters{})
			})
		}
	}
}
