package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"graphz/internal/checkpoint"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// TestEngineSurfacesDeviceFull injects a capacity failure: the device
// fills up mid-run while the engine spills messages, and the run must
// fail with ErrNoSpace instead of silently dropping messages.
func TestEngineSurfacesDeviceFull(t *testing.T) {
	edges := gen.RMAT(9, 4000, gen.NaturalRMAT, 91)
	// Convert on an unlimited staging device, then copy onto a small
	// one so conversion temp files do not interfere with the test.
	staging := storage.NewDevice(storage.NullDevice, storage.Options{})
	must(t, graph.WriteEdges(staging, "raw", edges))
	if _, err := dos.Convert(dos.ConvertConfig{Dev: staging, RemoveInput: true}, "raw", "g"); err != nil {
		t.Fatal(err)
	}
	used := staging.Used()

	// A capacity just above the converted graph: message spills hit the
	// wall during the first partition's worker loop, before the vertex
	// state is ever flushed.
	g2 := loadOnCapped(t, staging, used+512)

	budget := int64(pipelineOverheadBytes) + g2.IndexBytes() + int64(g2.NumVertices)*8/4 + 8*64
	reg := obs.NewRegistry()
	eng, err := New[minVal, uint32](DOSLayout(g2), minLabel{}, graph.U32PairCodec, graph.Uint32Codec{},
		Options{MemoryBudget: budget, DynamicMessages: true, MsgBufferBytes: 64, Obs: reg})
	must(t, err)
	if eng.NumPartitions() < 2 {
		t.Skip("budget did not force partitioning; nothing spills")
	}
	_, err = eng.Run()
	if err == nil {
		t.Fatal("run on a full device should fail")
	}
	if !errors.Is(err, storage.ErrNoSpace) {
		t.Errorf("error = %v, want ErrNoSpace in chain", err)
	}
	// Every spill failure lands in the counter, not just the first one
	// that aborts the run.
	errCount := reg.CounterValue("graphz_messages_spill_errors_total")
	if errCount < 1 {
		t.Error("graphz_messages_spill_errors_total counter not incremented")
	}
	if errCount != eng.c.spillErrs {
		t.Errorf("counter = %d, engine saw %d", errCount, eng.c.spillErrs)
	}
	// The aborted run still published what it did up to the failing
	// partition, and the iteration it died in has its row.
	checkLedgerViews(t, eng, reg, checkpoint.Counters{})
	// When later failures were dropped behind the first, the error text
	// says how many: the first failure is the error itself, so errCount-1
	// were dropped (TestWrapRunErrMessage pins the wording).
	if want := fmt.Sprintf("(%d later spill ", errCount-1); errCount > 1 && !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

// loadOnCapped copies a staging device holding the converted graph "g"
// onto a fresh device of the given capacity and loads the graph there, so
// conversion temp files do not count against the cap.
func loadOnCapped(t *testing.T, staging *storage.Device, capacity int64) *dos.Graph {
	t.Helper()
	dev := storage.NewDevice(storage.SSD, storage.Options{Capacity: capacity})
	for _, name := range staging.List() {
		data, err := storage.ReadAllFile(staging, name)
		must(t, err)
		must(t, storage.WriteAll(dev, name, data))
	}
	g, err := dos.Load(dev, "g")
	must(t, err)
	return g
}

// TestWrapRunErrMessage pins wrapRunErr's exact annotation: no suffix for
// a single failure, singular for one dropped, plural beyond — and never
// the historical off-by-grammar "(1 later spill errors dropped)".
func TestWrapRunErrMessage(t *testing.T) {
	base := errors.New("boom")
	for _, tc := range []struct {
		spillErrs int64
		want      string
	}{
		{1, "boom"},
		{2, "boom (1 later spill error dropped)"},
		{3, "boom (2 later spill errors dropped)"},
		{5, "boom (4 later spill errors dropped)"},
	} {
		e := &Engine[minVal, uint32]{runErr: base, c: counters{spillErrs: tc.spillErrs}}
		err := e.wrapRunErr()
		if got := err.Error(); got != tc.want {
			t.Errorf("spillErrs=%d: message = %q, want %q", tc.spillErrs, got, tc.want)
		}
		if !errors.Is(err, base) {
			t.Errorf("spillErrs=%d: wrapped error lost its cause", tc.spillErrs)
		}
	}
}
