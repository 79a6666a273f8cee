package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"graphz/internal/checkpoint"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// Tests of the one message path — buffer, spill, drain — at the level of
// its routines: the spill-buffer capacity clamp, the streaming drain's
// memory bound and order (against the per-record drain it replaced), device
// faults mid-drain, the skip of an empty drain, a torn message file,
// message conservation over a whole forced-spill run, and the allocation
// bound of the state load/store round the drain sits between.

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
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, minValCodec{}, graph.Uint32Codec{},
		Options{MemoryBudget: 64 << 20, DynamicMessages: true, MsgBufferBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the buffer below one 8-byte record, then stand in for Run's
	// per-run setup, which makes the buffers.
	eng.opts.MsgBufferBytes = 4
	eng.msgBufs = eng.newMsgBufs()
	for p := 0; p < eng.NumPartitions(); p++ {
		if _, err := eng.dev.Create(eng.msgFile(p)); err != nil {
			t.Fatal(err)
		}
	}

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
	return drainEngineCodec(t, g, prog, vc, graph.Uint32Codec{}, opts, init)
}

// drainEngineCodec is drainEngine with the message codec — and so the
// record size — chosen by the caller.
func drainEngineCodec[V any](t *testing.T, g *dos.Graph, prog Program[V, uint32], vc graph.Codec[V], mc graph.Codec[uint32], opts Options, init func(i int) V) *Engine[V, uint32] {
	t.Helper()
	opts.DynamicMessages = true
	eng, err := New[V, uint32](DOSLayout(g), prog, vc, mc, opts)
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
	eng.msgBufs = eng.newMsgBufs()
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

	// The same applies in the same order — and the same ledger, bits, heat
	// and device operations — as the per-record drain (drainMessagesRef),
	// for records that do not divide the device block and spill files that
	// end just short of, on and just past a block boundary.
	big := buildDOS(t, ringEdges(150_000)) // enough 4-byte states to span several heat blocks
	for _, msize := range []int{4, 2, 12, 20} {
		perBlock := storage.DefaultBlockSize / (4 + msize)
		for _, spilled := range []int{0, 1, perBlock - 1, perBlock, perBlock + 1, 2*perBlock + 3} {
			for _, watched := range []bool{false, true} { // selective scheduling and the heatmap
				t.Run(fmt.Sprintf("msize=%d/spilled=%d/watched=%v", msize, spilled, watched), func(t *testing.T) {
					checkDrainMatchesRef(t, big, padCodec{msize}, spilled, 3, watched)
				})
			}
		}
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

// padCodec encodes a uint32 message into size bytes — the low two for size
// 2, else four and zero padding — giving the drain records (4+size bytes)
// that straddle device blocks. Decode refuses padding that is not zero: a
// record cut at the wrong offset shows even where the hash would not.
type padCodec struct{ size int }

func (c padCodec) Size() int { return c.size }

func (c padCodec) Encode(b []byte, m uint32) {
	if c.size == 2 {
		binary.LittleEndian.PutUint16(b, uint16(m))
		return
	}
	clear(b[:c.size])
	binary.LittleEndian.PutUint32(b, m)
}

func (c padCodec) Decode(b []byte) uint32 {
	if c.size == 2 {
		return uint32(binary.LittleEndian.Uint16(b))
	}
	for _, pad := range b[4:c.size] {
		if pad != 0 {
			panic("padCodec: record decoded at the wrong offset")
		}
	}
	return binary.LittleEndian.Uint32(b)
}

// drainMessagesRef is the drain as it was written per record — one
// storage.Reader call, one copy and one apply for each — kept as the
// reference the block-wise drain must match.
func drainMessagesRef[V, M any](e *Engine[V, M], p int, lo graph.VertexID) error {
	rec := 4 + e.msize
	var heatAcc map[int64]int64
	if e.eo.heat != nil {
		heatAcc = make(map[int64]int64)
	}
	apply := func(b []byte) {
		dst := graph.VertexID(binary.LittleEndian.Uint32(b))
		e.prog.Apply(&e.verts[dst-lo], e.mcodec.Decode(b[4:]))
		e.c.Applied++
		if e.sel != nil {
			e.sel.set(dst)
		}
		if heatAcc != nil {
			heatAcc[e.vstateBlock(dst)]++
		}
	}
	f, err := e.dev.Open(e.msgFile(p))
	if err != nil {
		return err
	}
	r := storage.NewReader(f)
	buf := make([]byte, rec)
	for {
		err := r.ReadFull(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		apply(buf)
	}
	if err := f.Truncate(0); err != nil {
		return err
	}
	mem := e.msgBufs[p]
	for off := 0; off+rec <= len(mem); off += rec {
		apply(mem[off : off+rec])
	}
	e.msgBufs[p] = mem[:0]
	if len(heatAcc) > 0 {
		e.flushDrainHeat(heatAcc)
	}
	return nil
}

// pendingRecords fills eng's partition-0 message store with spilled records
// in the file, appended in buffer-sized spills as a run would, and tail
// more in the in-memory buffer, from a fixed pseudo-random sequence.
func pendingRecords[V any](t *testing.T, eng *Engine[V, uint32], spilled, tail int) {
	t.Helper()
	f, err := eng.dev.Open(eng.msgFile(0))
	if err != nil {
		t.Fatal(err)
	}
	rec, nv, x := 4+eng.msize, uint32(len(eng.verts)), uint32(2463534242)
	next := func(buf []byte) []byte {
		x = x*1664525 + 1013904223
		buf = binary.LittleEndian.AppendUint32(buf, (x>>4)%nv)
		buf = buf[:len(buf)+eng.msize]
		eng.mcodec.Encode(buf[len(buf)-eng.msize:], x>>9)
		return buf
	}
	buf := make([]byte, 0, 64<<10)
	for i := 0; i < spilled; i++ {
		buf = next(buf)
		if len(buf)+rec > cap(buf) || i == spilled-1 {
			if _, err := f.Append(buf); err != nil {
				t.Fatal(err)
			}
			buf = buf[:0]
		}
	}
	for i := 0; i < tail; i++ {
		eng.msgBufs[0] = next(eng.msgBufs[0])
	}
}

// checkDrainMatchesRef drains the same pending records through
// drainMessages and through drainMessagesRef on twin engines and demands
// the same states, ledger, schedulability bits, drain heat and device
// operations on the message file.
func checkDrainMatchesRef(t *testing.T, g *dos.Graph, mc graph.Codec[uint32], spilled, tail int, watched bool) {
	t.Helper()
	twin := func(name string) (*Engine[mixVal, uint32], *obs.Registry) {
		opts := Options{MemoryBudget: 64 << 20, Name: name, SelectiveScheduling: watched}
		var reg *obs.Registry
		if watched {
			reg = obs.NewRegistry()
			opts.Obs = reg
		}
		eng := drainEngineCodec[mixVal](t, g, mixProg{}, mixCodec{}, mc, opts, func(i int) mixVal { return mixVal{h: uint32(i)} })
		if watched {
			eng.sel = newEmptyActiveSet(g.NumVertices) // New's starts all ones: no set would show
		}
		pendingRecords(t, eng, spilled, tail)
		return eng, reg
	}
	got, gotReg := twin("blocks")
	want, wantReg := twin("records")
	if err := got.drainMessages(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := drainMessagesRef(want, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got.c != want.c || got.c.Applied != int64(spilled+tail) {
		t.Errorf("ledger %+v, per-record drain %+v, %d records pending", got.c, want.c, spilled+tail)
	}
	for i := range want.verts {
		if got.verts[i] != want.verts[i] {
			t.Fatalf("vertex %d = %+v, per-record drain %+v", i, got.verts[i], want.verts[i])
		}
	}
	if sz, _ := got.dev.Size(got.msgFile(0)); sz != 0 || len(got.msgBufs[0]) != 0 {
		t.Errorf("%d file bytes and %d buffer bytes left pending", sz, len(got.msgBufs[0]))
	}
	io := got.dev.FileStats()
	if g, w := io[got.msgFile(0)], io[want.msgFile(0)]; g != w {
		t.Errorf("device traffic on the message file %+v, per-record drain %+v", g, w)
	}
	if !watched {
		return
	}
	if !reflect.DeepEqual(got.sel, want.sel) {
		t.Errorf("schedulability bits differ: %d set, per-record drain %d", got.sel.count, want.sel.count)
	}
	heat := func(reg *obs.Registry) map[int64]int64 {
		cells := map[int64]int64{}
		for _, c := range reg.Heatmap().Cells() {
			cells[c.Block] += c.DrainMsgs
		}
		return cells
	}
	if g, w := heat(gotReg), heat(wantReg); !reflect.DeepEqual(g, w) || (spilled+tail > 0 && len(g) < 2) {
		t.Errorf("drain heat %v, per-record drain %v (want several blocks)", g, w)
	}
}

// TestDrainDeviceFaults: a device read that fails or a device that dies
// in the middle of a multi-block drain surfaces as a typed error naming
// the drain — never a panic, never a half-applied block counted — and
// leaves the spill file whole for the run's restart.
func TestDrainDeviceFaults(t *testing.T) {
	for name, tc := range map[string]struct {
		plan storage.FaultPlan
		want error
	}{
		"read error": {storage.FaultPlan{FailAtOps: []int64{2}}, storage.ErrInjected},
		"crash":      {storage.FaultPlan{CrashAtOp: 2}, storage.ErrCrashed},
	} {
		t.Run(name, func(t *testing.T) {
			fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
			g := buildDOSOn(t, fd.Device, gen.RMAT(6, 200, gen.NaturalRMAT, 55))
			eng := drainEngineCodec[mixVal](t, g, mixProg{}, mixCodec{}, padCodec{20}, Options{MemoryBudget: 64 << 20},
				func(i int) mixVal { return mixVal{h: uint32(i)} })
			perBlock := storage.DefaultBlockSize / (4 + eng.msize)
			pendingRecords(t, eng, 2*perBlock+3, 3)
			size, _ := eng.dev.Size(eng.msgFile(0))
			fd.Arm(tc.plan) // the drain's second block read is the device's second operation
			err := eng.drainMessages(0, 0)
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "draining messages for partition 0") {
				t.Fatalf("drain = %v, want %v under the drain's name", err, tc.want)
			}
			// The first block held perBlock whole records and a straddler.
			if eng.c.Applied != int64(perBlock) {
				t.Errorf("applied %d records before the failed read, want the first block's %d", eng.c.Applied, perBlock)
			}
			if sz, _ := eng.dev.Size(eng.msgFile(0)); sz != size || len(eng.msgBufs[0]) != 3*(4+eng.msize) {
				t.Errorf("a failed drain left %d of %d file bytes and %d tail bytes", sz, size, len(eng.msgBufs[0]))
			}
		})
	}
}

// TestDrainSkippedWhenEmpty: with nothing buffered and nothing spilled
// the drain neither opens nor reads the message file.
func TestDrainSkippedWhenEmpty(t *testing.T) {
	g := buildDOS(t, []graph.Edge{{Src: 0, Dst: 1}})
	eng := drainEngine[minVal](t, g, minLabel{}, minValCodec{}, Options{MemoryBudget: 64 << 20}, minValOf)
	before := eng.dev.Stats()
	if err := eng.drainMessages(0, 0); err != nil {
		t.Fatal(err)
	}
	if io := eng.dev.Stats().Sub(before); io.ReadOps != 0 || io.WriteOps != 0 {
		t.Errorf("empty drain touched the device: %+v", io)
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

// TestApplyAll: ApplyAll is Apply in a loop over the resident destinations
// and returns their count — over seeded random resident ranges [lo, lo+n),
// and none at all (inlineTargets with dynamic messages off), and destination
// lists mixing resident IDs with IDs below lo and at and past lo+n,
// duplicates, and the empty list. One call carries one message, so within it
// the order of two applies to one vertex cannot show; an apply dropped,
// doubled or landed on the wrong vertex does — mixProg's hash moves with
// every one.
func TestApplyAll(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for c := 0; c < 200; c++ {
		n, lo := rng.Intn(40), graph.VertexID(rng.Intn(100))
		if c%10 == 0 {
			n, lo = 0, 0
		}
		var got, want []mixVal // nil when nothing is resident
		for i := 0; i < n; i++ {
			got = append(got, mixVal{h: rng.Uint32()})
		}
		want = append(want, got...)
		dsts := make([]graph.VertexID, rng.Intn(60))
		if c%7 == 0 {
			dsts = nil
		}
		for i := range dsts {
			switch rng.Intn(4) {
			case 0: // anywhere, mostly outside
				dsts[i] = graph.VertexID(rng.Intn(200))
			case 1: // the last resident ID and the first past it
				dsts[i] = lo + graph.VertexID(n) - graph.VertexID(rng.Intn(2))
			case 2: // a duplicate of an earlier destination
				dsts[i] = dsts[rng.Intn(i+1)]
			default:
				dsts[i] = lo + graph.VertexID(rng.Intn(n+1))
			}
		}
		m, applied := rng.Uint32(), 0
		for _, dst := range dsts {
			if dst >= lo && int(dst-lo) < n {
				mixProg{}.Apply(&want[dst-lo], m)
				applied++
			}
		}
		if k := ApplyAll(got, lo, dsts, m, mixProg{}.Apply); k != applied {
			t.Fatalf("ApplyAll over [%d,%d) and %v returned %d, want %d", lo, int(lo)+n, dsts, k, applied)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ApplyAll over [%d,%d) and %v left %v, Apply in a loop leaves %v", lo, int(lo)+n, dsts, got, want)
		}
	}
}

// miscount is witnessLabel with a hand-written ApplyAll that applies
// every resident destination and reports off more.
type miscount struct {
	witnessLabel
	off int
}

func (p miscount) ApplyAll(vs []witnessVal, lo graph.VertexID, dsts []graph.VertexID, m uint32) int {
	if n := p.witnessLabel.ApplyAll(vs, lo, dsts, m); n > 0 {
		return n + p.off
	}
	return 0
}

// TestApplyAllMiscountFailsRun: the engine learns how many messages were
// applied from the program, so a program that miscounts gets a typed error
// and no Result — not a ledger in which inline + buffered != sent. The
// ledger the aborted run publishes still adds up: it holds what the buffer
// pass found, not what the program said.
func TestApplyAllMiscountFailsRun(t *testing.T) {
	g := buildDOS(t, gen.RMAT(8, 1500, gen.NaturalRMAT, 82))
	for _, parts := range []int64{1, 4} {
		for _, off := range []int{-1, 1} {
			t.Run(fmt.Sprintf("parts=%d/off=%+d", parts, off), func(t *testing.T) {
				reg := obs.NewRegistry()
				opts := Options{MemoryBudget: 64 << 20, DynamicMessages: true, MsgBufferBytes: 64, Obs: reg}
				if parts > 1 {
					opts.MemoryBudget = budgetForPartitions(g, 12, parts, 64)
				}
				eng, err := New[witnessVal, uint32](DOSLayout(g), miscount{off: off}, witnessCodec{}, graph.Uint32Codec{}, opts)
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
				if first := int64(eng.partStarts[1]); eng.NumPartitions() != int(parts) || eng.c.Updates != first {
					t.Errorf("%d partitions, %d updates: want %d and the run stopped after the first's %d",
						eng.NumPartitions(), eng.c.Updates, parts, first)
				}
				checkLedgerViews(t, eng, reg, checkpoint.Counters{})
			})
		}
	}
}
