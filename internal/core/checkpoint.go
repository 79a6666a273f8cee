package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"graphz/internal/checkpoint"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/storage"
)

// CheckpointOptions enables iteration-boundary checkpointing (see
// docs/DURABILITY.md). Checkpoints go to a host-filesystem directory —
// the durable volume of the deployment — while the graph and runtime
// files stay on the simulated device.
type CheckpointOptions struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Every checkpoints after every Nth completed iteration (and always
	// after the final one); <= 0 means every iteration.
	Every int
	// Keep bounds how many checkpoints are retained; <= 0 keeps 2, so
	// one damaged-at-rest checkpoint never strands the run.
	Keep int
	// Resume makes Run continue from the newest complete checkpoint in
	// Dir when one exists (and start fresh when the directory is empty
	// or absent). A corrupt checkpoint is an error, never a silent
	// restart.
	Resume bool
}

func (c CheckpointOptions) enabled() bool { return c.Dir != "" }

func (c CheckpointOptions) every() int {
	if c.Every <= 0 {
		return 1
	}
	return c.Every
}

func (c CheckpointOptions) keep() int {
	if c.Keep <= 0 {
		return 2
	}
	return c.Keep
}

// initCheckpointing opens the checkpoint store and fingerprints the
// layout. Requires the layout index to be resident (DegreeOf).
func (e *Engine[V, M]) initCheckpointing() error {
	if !e.opts.Checkpoint.enabled() {
		return nil
	}
	st, err := checkpoint.NewStore(e.opts.Checkpoint.Dir)
	if err != nil {
		return err
	}
	e.ckStore = st
	e.layoutHash = e.computeLayoutHash()
	return nil
}

// computeLayoutHash fingerprints the graph layout a checkpoint is bound
// to: global shape plus sampled degrees. DOS conversion is deterministic,
// so rebuilding the same input graph after a crash reproduces the hash;
// a different graph (or a different layout of the same graph) does not.
func (e *Engine[V, M]) computeLayoutHash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(e.layout.NumVertices()))
	put(uint64(e.layout.NumEdges()))
	put(uint64(e.layout.IndexBytes()))
	put(uint64(e.vsize))
	put(uint64(e.msize))
	// The adjacency order differs between fixed-entry files (v1 edge
	// order) and block-encoded ones (v2's ascending sort), so a v1
	// checkpoint must not resume over a v2 graph or vice versa. The two
	// v2 codecs share an order — and a hash.
	if e.adj.FixedEntries() {
		put(1)
	} else {
		put(2)
	}
	if n := e.layout.NumVertices(); n > 0 {
		stride := n/64 + 1
		for v := 0; v < n; v += stride {
			put(uint64(v)<<32 | uint64(e.layout.DegreeOf(graph.VertexID(v))))
		}
	}
	return h.Sum64()
}

// activeSectionName is the checkpoint section holding the selective
// scheduler's bitmap; written only when selective scheduling is on.
const activeSectionName = "activeset"

// msgSectionName names the checkpoint section holding partition p's
// spilled-message file; tailSectionName holds its in-memory buffer.
// They are kept separate so a resumed run reproduces not just the
// message stream (file ++ tail, in send order) but the exact buffer
// occupancy — and with it every future spill boundary, keeping the
// resumed run's counters identical to the uninterrupted run's.
func msgSectionName(p int) string  { return fmt.Sprintf("msgs.%d", p) }
func tailSectionName(p int) string { return fmt.Sprintf("tail.%d", p) }

// writeCheckpoint persists the engine state after iteration `iters`
// completed: vertex states, each partition's spilled-message file, and
// each partition's in-memory buffer tail.
func (e *Engine[V, M]) writeCheckpoint(iters int, done bool) error {
	start := time.Now()
	var vstate []byte
	if e.pinned() {
		// Pinned states are only flushed to the vstate file at the end of
		// the run — encode the checkpoint's copy from the resident array,
		// not the (stale) device file.
		vstate = make([]byte, len(e.verts)*e.vsize)
		e.states.EncodeAll(vstate, e.verts)
	} else {
		var err error
		vstate, err = storage.ReadAllFile(e.dev, e.vstateFile())
		if err != nil {
			return fmt.Errorf("core: checkpoint at iteration %d: reading vertex states: %w", iters, err)
		}
	}
	secs := make([]checkpoint.SectionData, 0, 2+2*len(e.msgBufs))
	secs = append(secs, checkpoint.SectionData{Name: "vstate", Data: vstate})
	if e.sel != nil {
		// The bitmap makes the resumed run's block schedule — and so its
		// operation sequence — identical to the uninterrupted run's.
		secs = append(secs, checkpoint.SectionData{Name: activeSectionName, Data: e.sel.marshal()})
	}
	for p := range e.msgBufs {
		data, err := storage.ReadAllFile(e.dev, e.msgFile(p))
		if err != nil {
			return fmt.Errorf("core: checkpoint at iteration %d: reading messages of partition %d: %w", iters, p, err)
		}
		secs = append(secs,
			checkpoint.SectionData{Name: msgSectionName(p), Data: data},
			checkpoint.SectionData{Name: tailSectionName(p), Data: e.msgBufs[p]})
	}
	m := checkpoint.Manifest{
		Name:       e.opts.Name,
		LayoutHash: e.layoutHash,
		Iteration:  iters,
		Converged:  done,
		Partitions: e.NumPartitions(),
		VSize:      e.vsize,
		MSize:      e.msize,
		Counters:   e.c.Counters,
	}
	n, err := e.ckStore.Write(m, secs)
	if err != nil {
		return fmt.Errorf("core: writing checkpoint at iteration %d: %w", iters, err)
	}
	if err := e.ckStore.Prune(e.opts.Checkpoint.keep()); err != nil {
		return err
	}
	e.chargeCheckpointIO(n, false)
	d := time.Since(start)
	e.c.ckpts++
	e.c.ckptBytes += n
	e.c.ckptNS += int64(d)
	// The span carries the same duration the graphz_checkpoint_ns_total
	// counter accumulated, so report stage totals reconcile exactly.
	// Checkpoints cover the whole iteration boundary: part is -1.
	e.eo.Tr.Emit(engineName, obs.StageCheckpoint, iters, -1, start, d)
	return nil
}

// chargeCheckpointIO charges the modeled clock for moving n checkpoint
// bytes, using the data device's cost profile as a stand-in for the
// durable volume — this is what makes checkpoint overhead visible in the
// bench tables' modeled Runtime.
func (e *Engine[V, M]) chargeCheckpointIO(n int64, read bool) {
	prof := storage.ProfileFor(e.dev.Kind())
	t := prof.SeekLatency
	bw := prof.WriteBandwidth
	if read {
		bw = prof.ReadBandwidth
	}
	if bw > 0 {
		t += time.Duration(float64(n) / bw * float64(time.Second))
	}
	e.opts.Clock.IO(t)
}

// resume validates the newest checkpoint in Options.Checkpoint.Dir and
// continues the run from it, once index and store are ready (Run with
// Checkpoint.Resume): a converged checkpoint just restores the final vertex
// states; an in-flight one re-enters the iteration loop at iteration k.
// Validation failures return the typed errors of package checkpoint
// (ErrTruncated, ErrCRCMismatch, ErrVersionTooNew, ErrLayoutMismatch,
// ErrConfigMismatch, ErrBadManifest) — never a panic, and never a silent
// restart from iteration 0.
func (e *Engine[V, M]) resume() (Result, error) {
	start := time.Now()
	ck, err := e.ckStore.Latest()
	if err != nil {
		return Result{}, err
	}
	m := ck.Manifest
	if m.Name != e.opts.Name {
		return Result{}, fmt.Errorf("%w: checkpoint is for engine %q, this engine is %q",
			checkpoint.ErrConfigMismatch, m.Name, e.opts.Name)
	}
	if m.LayoutHash != e.layoutHash {
		return Result{}, fmt.Errorf("%w: checkpoint hash %016x, graph hash %016x",
			checkpoint.ErrLayoutMismatch, m.LayoutHash, e.layoutHash)
	}
	nParts := e.NumPartitions()
	if m.Partitions != nParts || m.VSize != e.vsize || m.MSize != e.msize {
		return Result{}, fmt.Errorf("%w: checkpoint (partitions=%d vsize=%d msize=%d), engine (partitions=%d vsize=%d msize=%d)",
			checkpoint.ErrConfigMismatch, m.Partitions, m.VSize, m.MSize, nParts, e.vsize, e.msize)
	}
	vstate, err := ck.Section("vstate")
	if err != nil {
		return Result{}, err
	}
	if want := e.layout.NumVertices() * e.vsize; len(vstate) != want {
		return Result{}, fmt.Errorf("%w: vstate section is %d bytes, layout needs %d",
			checkpoint.ErrTruncated, len(vstate), want)
	}
	if err := storage.WriteAll(e.dev, e.vstateFile(), vstate); err != nil {
		return Result{}, fmt.Errorf("core: restoring vertex states: %w", err)
	}
	restored := int64(len(vstate))
	// Spilled files go back to the device; buffer tails go back into
	// memory at the exact occupancy — and capacity — they had, so both
	// the drain order (file then tail) and every future spill boundary
	// replay identically.
	e.makeMsgBufs()
	rec := int64(4 + e.msize)
	for p := 0; p < nParts; p++ {
		data, err := ck.Section(msgSectionName(p))
		if err != nil {
			return Result{}, err
		}
		tail, err := ck.Section(tailSectionName(p))
		if err != nil {
			return Result{}, err
		}
		if int64(len(data))%rec != 0 || int64(len(tail))%rec != 0 {
			return Result{}, fmt.Errorf("%w: message sections of partition %d are %d+%d bytes, record size %d",
				checkpoint.ErrTruncated, p, len(data), len(tail), rec)
		}
		// The drain finds a record's state, bit and heat slot by its
		// destination: every restored record must point inside.
		lo, hi := e.parts.starts[p], e.parts.starts[p+1]
		for _, sec := range [][]byte{data, tail} {
			for off := int64(0); off < int64(len(sec)); off += rec {
				if dst := graph.VertexID(binary.LittleEndian.Uint32(sec[off:])); dst < lo || dst >= hi {
					return Result{}, fmt.Errorf("%w: a message record of partition %d names vertex %d, outside [%d,%d)",
						checkpoint.ErrTruncated, p, dst, lo, hi)
				}
			}
		}
		if err := storage.WriteAll(e.dev, e.msgFile(p), data); err != nil {
			return Result{}, fmt.Errorf("core: restoring messages of partition %d: %w", p, err)
		}
		// A tail that leaves no room for one more record was cut by a
		// larger buffer than this engine's: scatter could neither
		// take the next record nor spill at the boundary the checkpointed
		// run would have.
		if len(tail)+int(rec) > cap(e.msgBufs[p]) {
			return Result{}, fmt.Errorf("%w: buffer tail of partition %d is %d bytes, this engine's message buffers hold %d",
				checkpoint.ErrConfigMismatch, p, len(tail), cap(e.msgBufs[p]))
		}
		e.msgBufs[p] = append(e.msgBufs[p], tail...)
		restored += int64(len(data) + len(tail))
	}
	if e.sel != nil && !ck.HasSection(activeSectionName) {
		// A checkpoint from a non-selective run has no bitmap: every vertex
		// is scheduled — a conservative full rescan, never a wrongly
		// skipped vertex. Not the set New built: that is the program's
		// initial frontier, which only iteration 0 starts from.
		e.sel = newActiveSet(e.layout.NumVertices())
	} else if e.sel != nil {
		data, err := ck.Section(activeSectionName)
		if err != nil {
			return Result{}, err
		}
		if e.sel, err = unmarshalActiveSet(data, e.layout.NumVertices()); err != nil {
			return Result{}, err
		}
	}
	// The ledger continues the logical run; publishing the restored
	// baseline once keeps this process's registry equal to its Result.
	e.c.Counters = m.Counters
	e.publish()
	e.chargeCheckpointIO(restored, true)
	d := time.Since(start)
	e.eo.restores.Inc()
	e.eo.Tr.Emit(engineName, obs.StageRestore, m.Iteration, -1, start, d)
	if m.Converged {
		// The checkpointed run already finished; nothing to iterate.
		return e.finish(m.Iteration), nil
	}
	return e.loop(m.Iteration)
}
