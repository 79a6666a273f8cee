package core

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
)

// Tests of the one message path — buffer, spill, drain — at the level of
// its routines: the spill-buffer capacity clamp, the streaming drain's
// memory bound and order, the skip of an empty drain, a torn message
// file, and message conservation over a whole forced-spill run.

// TestBufferMessageRecordLargerThanBuffer: bufferMessage used to
// allocate the destination buffer with exactly MsgBufferBytes capacity
// and then re-slice it by one record, so a record larger than the
// configured buffer panicked with a slice-bounds violation. New clamps
// MsgBufferBytes high enough that the public API cannot reach that
// state, so this test drops the option below one record after
// construction — what a refactor that loses the distant clamp would do —
// and requires each oversized record to be spilled whole instead.
func TestBufferMessageRecordLargerThanBuffer(t *testing.T) {
	g := buildDOS(t, gen.RMAT(7, 400, gen.NaturalRMAT, 50))
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
		Options{MemoryBudget: 64 << 20, DynamicMessages: true, MsgBufferBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Stand in for Run's per-run setup, then shrink the buffer below
	// one 8-byte record.
	eng.msgBufs = make([][]byte, eng.NumPartitions())
	for p := 0; p < eng.NumPartitions(); p++ {
		if _, err := eng.dev.Create(eng.msgFile(p)); err != nil {
			t.Fatal(err)
		}
	}
	eng.opts.MsgBufferBytes = 4

	const n = 5
	for i := 0; i < n; i++ {
		eng.bufferMessage(graph.VertexID(i), uint32(100+i))
	}
	if eng.runErr != nil {
		t.Fatal(eng.runErr)
	}
	// Every record was bigger than the buffer, so each must have been
	// spilled immediately and in order.
	if eng.c.Spilled != n {
		t.Errorf("spilled = %d, want %d", eng.c.Spilled, n)
	}
	p := eng.partitionOf(0)
	sz, err := eng.dev.Size(eng.msgFile(p))
	if err != nil {
		t.Fatal(err)
	}
	rec := int64(4 + eng.msize)
	if sz != n*rec {
		t.Fatalf("message file holds %d bytes, want %d", sz, n*rec)
	}
	data := make([]byte, sz)
	f, err := eng.dev.Open(eng.msgFile(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		dst := binary.LittleEndian.Uint32(data[int64(i)*rec:])
		m := binary.LittleEndian.Uint32(data[int64(i)*rec+4:])
		if dst != uint32(i) || m != uint32(100+i) {
			t.Errorf("record %d = (dst %d, m %d), want (%d, %d)", i, dst, m, i, 100+i)
		}
	}
}

// drainEngine builds a single-partition engine ready for direct
// bufferMessage / drainMessages calls: resident states from init, empty
// buffers, message file created — what Run sets up before its first
// partition.
func drainEngine[V any](t *testing.T, g *dos.Graph, prog Program[V, uint32], vc graph.Codec[V], opts Options, init func(i int) V) *Engine[V, uint32] {
	t.Helper()
	opts.DynamicMessages = true
	eng, err := New[V, uint32](DOSLayout(g), prog, vc, graph.Uint32Codec{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumPartitions() != 1 {
		t.Fatalf("%d partitions, want 1", eng.NumPartitions())
	}
	eng.verts = make([]V, g.NumVertices)
	for i := range eng.verts {
		eng.verts[i] = init(i)
	}
	eng.msgBufs = make([][]byte, 1)
	if _, err := eng.dev.Create(eng.msgFile(0)); err != nil {
		t.Fatal(err)
	}
	return eng
}

func minValOf(i int) minVal { return minVal{label: uint32(i), pending: uint32(i)} }

// TestDrainBoundedMemory: the spill file holds a whole iteration's
// cross-partition traffic and is not covered by the memory budget, so
// the drain must stream it: draining a file four times MemoryBudget may
// not allocate anywhere near the file size.
func TestDrainBoundedMemory(t *testing.T) {
	g := buildDOS(t, gen.RMAT(7, 400, gen.NaturalRMAT, 51))
	eng := drainEngine[minVal](t, g, minLabel{}, minValCodec{}, Options{MemoryBudget: 4 << 20}, minValOf)
	nv := uint32(g.NumVertices)

	// Build a 16 MiB spill file of valid records and track the expected
	// per-vertex minimum.
	const fileBytes = 16 << 20
	rec := 4 + eng.msize
	want := make([]uint32, nv)
	for i := range want {
		want[i] = uint32(i)
	}
	f, err := eng.dev.Open(eng.msgFile(0))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]byte, 0, 256<<10)
	x := uint32(12345)
	for written := 0; written < fileBytes; {
		batch = batch[:0]
		for len(batch) < cap(batch) && written+len(batch) < fileBytes {
			x = x*1664525 + 1013904223
			dst := x % nv
			m := (x >> 8) % nv
			batch = binary.LittleEndian.AppendUint32(batch, dst)
			batch = binary.LittleEndian.AppendUint32(batch, m)
			if m < want[dst] {
				want[dst] = m
			}
		}
		if _, err := f.Append(batch); err != nil {
			t.Fatal(err)
		}
		written += len(batch)
	}
	total := int64(fileBytes / rec)

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
	if eng.c.Applied != total {
		t.Errorf("applied = %d, want %d", eng.c.Applied, total)
	}
	if sz, _ := eng.dev.Size(eng.msgFile(0)); sz != 0 {
		t.Errorf("spill file not truncated: %d bytes", sz)
	}
	for i, v := range eng.verts {
		if v.pending != want[i] {
			t.Fatalf("vertex %d pending = %d, want %d", i, v.pending, want[i])
		}
	}
}

// TestDrainTailAfterFile: the drain replays the spilled file first and
// the in-memory tail (records that never spilled) after it, so every
// destination sees its messages in send order. mixProg's apply is
// order-sensitive: any other order leaves a different hash.
func TestDrainTailAfterFile(t *testing.T) {
	g := buildDOS(t, gen.RMAT(6, 200, gen.NaturalRMAT, 52))
	// A 32-byte buffer holds four records: of six sends, four spill and
	// two stay in the tail.
	eng := drainEngine[mixVal](t, g, mixProg{}, mixCodec{}, Options{MemoryBudget: 64 << 20, MsgBufferBytes: 32},
		func(int) mixVal { return mixVal{h: 7} })
	want := mixVal{h: 7}
	for m := uint32(1); m <= 6; m++ {
		eng.bufferMessage(3, m)
		mixProg{}.Apply(&want, m)
	}
	if eng.runErr != nil {
		t.Fatal(eng.runErr)
	}
	if eng.c.Spilled != 4 || len(eng.msgBufs[0]) != 2*(4+eng.msize) {
		t.Fatalf("spilled %d records with %d tail bytes, want 4 and 16", eng.c.Spilled, len(eng.msgBufs[0]))
	}
	if err := eng.drainMessages(0, 0); err != nil {
		t.Fatal(err)
	}
	if eng.verts[3] != want {
		t.Errorf("vertex 3 = %+v after file-then-tail drain, want %+v", eng.verts[3], want)
	}
	if eng.c.Applied != 6 {
		t.Errorf("applied = %d, want 6", eng.c.Applied)
	}
	if len(eng.msgBufs[0]) != 0 {
		t.Errorf("message buffer not cleared: %d bytes", len(eng.msgBufs[0]))
	}
	if sz, _ := eng.dev.Size(eng.msgFile(0)); sz != 0 {
		t.Errorf("spill file not truncated: %d bytes", sz)
	}
}

// TestDrainSkippedWhenEmpty: with nothing buffered and nothing spilled
// the drain neither opens nor reads the message file, and says so on
// graphz_drain_skipped_total.
func TestDrainSkippedWhenEmpty(t *testing.T) {
	g := buildDOS(t, []graph.Edge{{Src: 0, Dst: 1}})
	reg := obs.NewRegistry()
	eng := drainEngine[minVal](t, g, minLabel{}, minValCodec{}, Options{MemoryBudget: 64 << 20, Obs: reg}, minValOf)
	before := eng.dev.Stats()
	if err := eng.drainMessages(0, 0); err != nil {
		t.Fatal(err)
	}
	if io := eng.dev.Stats().Sub(before); io.ReadOps != 0 || io.WriteOps != 0 {
		t.Errorf("empty drain touched the device: %+v", io)
	}
	eng.publish() // the registry advances at partition boundaries; this drain ran outside one
	if got := reg.CounterValue("graphz_drain_skipped_total"); got != 1 {
		t.Errorf("graphz_drain_skipped_total = %d, want 1", got)
	}
	if eng.c.Applied != 0 {
		t.Errorf("applied = %d on an empty drain", eng.c.Applied)
	}
}

// TestDrainTornMessageFile: a message file that is not a whole number of
// records (a torn append) fails the drain by name before any record is
// applied — never a panic, never a half-decoded message.
func TestDrainTornMessageFile(t *testing.T) {
	g := buildDOS(t, gen.RMAT(6, 200, gen.NaturalRMAT, 53))
	eng := drainEngine[minVal](t, g, minLabel{}, minValCodec{}, Options{MemoryBudget: 64 << 20}, minValOf)
	f, err := eng.dev.Open(eng.msgFile(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append([]byte{5, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0}); err != nil { // one record + 3 bytes
		t.Fatal(err)
	}
	err = eng.drainMessages(0, 0)
	if err == nil || !strings.Contains(err.Error(), "torn") || !strings.Contains(err.Error(), eng.msgFile(0)) {
		t.Fatalf("drain of a torn file = %v, want an error naming the torn file", err)
	}
	if eng.c.Applied != 0 {
		t.Errorf("applied %d records of a torn file", eng.c.Applied)
	}
}

// TestMessageConservation: on a forced-spill run to convergence every
// sent message is either applied inline or buffered, every buffered one
// is eventually drained, and the registry agrees with the Result.
func TestMessageConservation(t *testing.T) {
	g := buildDOS(t, gen.Zipf(400, 8000, 1.2, 72)) // high fan-in: many messages share a destination
	reg := obs.NewRegistry()
	res, _ := runMinLabel(t, g, Options{
		MemoryBudget:    budgetForPartitions(g, 8, 4, 128),
		DynamicMessages: true,
		MsgBufferBytes:  128,
		Obs:             reg,
	})
	if res.MessagesSpilled == 0 {
		t.Fatal("no spills; test needs cross-partition traffic")
	}
	if res.MessagesInline+res.MessagesBuffered != res.MessagesSent {
		t.Errorf("inline %d + buffered %d != sent %d", res.MessagesInline, res.MessagesBuffered, res.MessagesSent)
	}
	if res.MessagesApplied != res.MessagesSent {
		t.Errorf("applied %d != sent %d at convergence", res.MessagesApplied, res.MessagesSent)
	}
	if res.MessagesSpilled > res.MessagesBuffered {
		t.Errorf("spilled %d > buffered %d", res.MessagesSpilled, res.MessagesBuffered)
	}
	if got := reg.CounterValue("graphz_messages_spilled_total"); got != res.MessagesSpilled {
		t.Errorf("graphz_messages_spilled_total = %d, result says %d", got, res.MessagesSpilled)
	}
}
