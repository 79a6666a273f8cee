package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"graphz/internal/checkpoint"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// stripDurability zeroes the fields that legitimately differ between an
// uninterrupted run and a resumed one (how many checkpoints each wrote
// and what they cost); everything else must match exactly.
func stripDurability(r Result) Result {
	r.Checkpoints = 0
	r.CheckpointBytes = 0
	r.CheckpointTime = 0
	r.Stages = obs.StageTimes{}
	return r
}

func ckptDirName(iter int) string { return fmt.Sprintf("ckpt-%010d", iter) }

// latestManifestPath returns the newest checkpoint's MANIFEST file.
func latestManifestPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*", "MANIFEST"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no manifest under %q (err=%v)", dir, err)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

func newMinLabelEngine(t *testing.T, g *dos.Graph, opts Options) *Engine[minVal, uint32] {
	t.Helper()
	eng, err := New[minVal, uint32](DOSLayout(g), minLabel{}, graph.U32PairCodec, graph.Uint32Codec{}, opts)
	must(t, err)
	return eng
}

// convergedCheckpointDir runs a checkpointed min-label run to completion
// and returns the edges and checkpoint dir for corruption tests.
func convergedCheckpointDir(t *testing.T, seed uint64) ([]graph.Edge, string) {
	t.Helper()
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, seed)
	dir := t.TempDir()
	g := buildDOS(t, edges)
	opts := partitionedOpts(g)
	opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1}
	runMinLabel(t, g, opts)
	return edges, dir
}

// resumeWith builds a fresh engine over edges and runs it resuming from
// dir, returning the error (typed, never a panic).
func resumeWith(t *testing.T, edges []graph.Edge, dir, name string) error {
	t.Helper()
	g := buildDOS(t, edges)
	opts := partitionedOpts(g)
	opts.Name = name
	opts.Checkpoint = CheckpointOptions{Dir: dir, Resume: true}
	_, err := newMinLabelEngine(t, g, opts).Run()
	return err
}

// resumeDamaged resumes a converged checkpointed run (convergedCheckpointDir's
// of seed) after damage rewrote one file of its newest checkpoint — its
// MANIFEST or a section — and fails the test unless the resume fails with
// want.
func resumeDamaged(t *testing.T, seed uint64, file string, want error, damage func([]byte) []byte) {
	t.Helper()
	edges, dir := convergedCheckpointDir(t, seed)
	path := filepath.Join(filepath.Dir(latestManifestPath(t, dir)), file)
	raw, err := os.ReadFile(path)
	must(t, err)
	must(t, os.WriteFile(path, damage(raw), 0o644))
	if err := resumeWith(t, edges, dir, ""); !errors.Is(err, want) {
		t.Fatalf("resume with a damaged %s = %v, want %v", file, err, want)
	}
}

func TestResumeTruncatedManifest(t *testing.T) {
	resumeDamaged(t, 46, "MANIFEST", checkpoint.ErrTruncated, func([]byte) []byte { return []byte("GZ") })
}

func TestResumeManifestCRCMismatch(t *testing.T) {
	resumeDamaged(t, 47, "MANIFEST", checkpoint.ErrCRCMismatch, func(raw []byte) []byte {
		raw[len(raw)-1] ^= 0xff
		return raw
	})
}

func TestResumeVersionFromTheFuture(t *testing.T) {
	resumeDamaged(t, 48, "MANIFEST", checkpoint.ErrVersionTooNew, func(raw []byte) []byte {
		binary.LittleEndian.PutUint16(raw[6:], checkpoint.FormatVersion+1)
		return raw
	})
}

func TestResumeLayoutMismatch(t *testing.T) {
	_, dir := convergedCheckpointDir(t, 49)
	// A different graph: same generator family, different seed and size.
	other := gen.RMAT(8, 1700, gen.NaturalRMAT, 50)
	if err := resumeWith(t, other, dir, ""); !errors.Is(err, checkpoint.ErrLayoutMismatch) {
		t.Fatalf("Resume against different graph = %v, want ErrLayoutMismatch", err)
	}
}

func TestResumeConfigMismatch(t *testing.T) {
	edges, dir := convergedCheckpointDir(t, 51)
	if err := resumeWith(t, edges, dir, "other-engine"); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("Resume with different engine name = %v, want ErrConfigMismatch", err)
	}

	// Buffer tails cut by 256-byte buffers do not fit an engine of the same
	// partitioning planned with 64-byte ones: it could not take the next
	// record into them.
	edges = gen.RMAT(8, 1500, gen.NaturalRMAT, 53)
	dir = t.TempDir()
	g := buildDOS(t, edges)
	opts := partitionedOpts(g)
	opts.MemoryBudget, opts.MsgBufferBytes, opts.MaxIterations = budgetForPartitions(g, 8, 4, 256), 256, 1
	opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1}
	res, _ := runMinLabel(t, g, opts)
	opts.MsgBufferBytes, opts.Checkpoint.Resume = 64, true
	eng := newMinLabelEngine(t, buildDOS(t, edges), opts)
	if eng.NumPartitions() != res.Partitions {
		t.Fatalf("resuming engine plans %d partitions, the checkpointed run used %d", eng.NumPartitions(), res.Partitions)
	}
	if _, err := eng.Run(); !errors.Is(err, checkpoint.ErrConfigMismatch) || !strings.Contains(err.Error(), "buffer tail") {
		t.Fatalf("Resume with smaller message buffers = %v, want ErrConfigMismatch naming the buffer tail", err)
	}
}

// Corrupting a section (not the manifest) must also fail with a typed
// error at restore time.
func TestResumeSectionCorruption(t *testing.T) {
	resumeDamaged(t, 52, "vstate", checkpoint.ErrCRCMismatch, func(raw []byte) []byte {
		raw[0] ^= 0xff
		return raw
	})
}

// TestResumeForeignRecord: a message section with a valid CRC whose record
// names a vertex outside its partition is refused at resume, typed — it
// would index past the partition's states at the first drain.
func TestResumeForeignRecord(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 53)
	for _, sec := range []string{msgSectionName(0), tailSectionName(0)} {
		g := buildDOS(t, edges)
		opts := partitionedOpts(g)
		opts.MaxIterations = 1
		opts.Checkpoint = CheckpointOptions{Dir: t.TempDir(), Every: 1}
		runMinLabel(t, g, opts)
		st, err := checkpoint.NewStore(opts.Checkpoint.Dir)
		must(t, err)
		ck, err := st.Latest()
		must(t, err)
		m, secs := ck.Manifest, []checkpoint.SectionData(nil)
		m.Converged = false // resume runs on, into partition 0's drain
		for _, s := range m.Sections {
			data, err := ck.Section(s.Name)
			must(t, err)
			if s.Name == sec {
				binary.LittleEndian.PutUint32(data, uint32(g.NumVertices-1)) // the last partition's
			}
			secs = append(secs, checkpoint.SectionData{Name: s.Name, Data: data})
		}
		_, err = st.Write(m, secs)
		must(t, err)
		if err := resumeWith(t, edges, opts.Checkpoint.Dir, ""); !errors.Is(err, checkpoint.ErrTruncated) {
			t.Errorf("resume over a record of %s naming vertex %d: %v, want ErrTruncated", sec, g.NumVertices-1, err)
		}
	}
}

// Checkpoint IO must charge the modeled clock on costed devices, so the
// bench overhead column reflects modeled time, not just wall time.
func TestCheckpointChargesModeledClock(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 55)
	run := func(ckpt bool) int64 {
		dev := storage.NewDevice(storage.HDD, storage.Options{})
		must(t, graph.WriteEdges(dev, "raw", edges))
		g, err := dos.Convert(dos.ConvertConfig{Dev: dev}, "raw", "g")
		must(t, err)
		clock := sim.NewClock()
		dev.SetClock(clock)
		opts := partitionedOpts(g)
		opts.Clock = clock
		if ckpt {
			opts.Checkpoint = CheckpointOptions{Dir: t.TempDir(), Every: 1}
		}
		runMinLabel(t, g, opts)
		return int64(clock.Total())
	}
	plain, ck := run(false), run(true)
	if ck <= plain {
		t.Fatalf("modeled time with checkpoints (%d ns) not above plain (%d ns)", ck, plain)
	}
}

// sortedRunCheckpoint rewrites the newest checkpoint in dir into the
// shape the removed destination-sorted spill path wrote: every msgs.<p>
// section cut into spill-buffer-sized runs, each stably sorted by
// destination, a runs.<p> section of 8-byte little-endian run lengths
// beside it, and combined / merge_passes / spill_saved counters in the
// manifest. fold additionally collapses each run's same-destination
// records into their minimum, as Options.Combine did for min-label.
// tear > 0 cuts that many bytes off the first non-empty msgs section.
func sortedRunCheckpoint(t *testing.T, dir string, bufBytes int, fold bool, tear int) {
	t.Helper()
	st, err := checkpoint.NewStore(dir)
	must(t, err)
	ck, err := st.Latest()
	must(t, err)
	const rec = 8 // 4-byte destination + uint32 label
	dstOf := func(r []byte) uint32 { return binary.LittleEndian.Uint32(r) }
	var secs []checkpoint.SectionData
	var folded int
	for _, s := range ck.Manifest.Sections {
		data, err := ck.Section(s.Name)
		must(t, err)
		var p int
		if _, err := fmt.Sscanf(s.Name, "msgs.%d", &p); err != nil {
			secs = append(secs, checkpoint.SectionData{Name: s.Name, Data: data})
			continue
		}
		var msgs, runs []byte
		for off := 0; off < len(data); off += bufBytes {
			buf := data[off:min(off+bufBytes, len(data))]
			recs := make([][]byte, len(buf)/rec)
			for i := range recs {
				recs[i] = buf[i*rec : (i+1)*rec]
			}
			sort.SliceStable(recs, func(a, b int) bool { return dstOf(recs[a]) < dstOf(recs[b]) })
			start := len(msgs)
			for i, r := range recs {
				if last := len(msgs) - rec; fold && i > 0 && dstOf(msgs[last:]) == dstOf(r) {
					m := min(binary.LittleEndian.Uint32(msgs[last+4:]), binary.LittleEndian.Uint32(r[4:]))
					binary.LittleEndian.PutUint32(msgs[last+4:], m)
					folded++
					continue
				}
				msgs = append(msgs, r...)
			}
			runs = binary.LittleEndian.AppendUint64(runs, uint64(len(msgs)-start))
		}
		if tear > 0 && len(msgs) >= rec {
			msgs = msgs[:len(msgs)-tear]
			tear = 0
		}
		secs = append(secs,
			checkpoint.SectionData{Name: s.Name, Data: msgs},
			checkpoint.SectionData{Name: fmt.Sprintf("runs.%d", p), Data: runs})
	}
	if fold && folded == 0 {
		t.Fatal("no run held two messages for one destination; nothing was folded")
	}
	if _, err := st.Write(ck.Manifest, secs); err != nil {
		t.Fatal(err)
	}

	// The writer no longer knows the sort-reduce counters; splice them into
	// the manifest payload (magic, u16 version, u32 CRC, JSON) by hand.
	path := latestManifestPath(t, dir)
	raw, err := os.ReadFile(path)
	must(t, err)
	const header = len("GZCKPT") + 6
	var m, counters map[string]json.RawMessage
	must(t, json.Unmarshal(raw[header:], &m))
	must(t, json.Unmarshal(m["counters"], &counters))
	counters["combined"] = json.RawMessage(fmt.Sprint(folded))
	counters["merge_passes"] = json.RawMessage("1")
	counters["spill_saved"] = json.RawMessage(fmt.Sprint(folded * rec))
	if m["counters"], err = json.Marshal(counters); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(m)
	must(t, err)
	binary.LittleEndian.PutUint32(raw[header-4:], crc32.ChecksumIEEE(payload))
	must(t, os.WriteFile(path, append(raw[:header], payload...), 0o644))
}

// TestSortedCheckpointResume: checkpoints written by the removed sorted
// spill path stay resumable. Their runs.<p> sections and sort-reduce
// counters are ignored, and replaying the destination-sorted runs in
// file order applies every destination's messages in the order they were
// sent — so a resumed "sorted" checkpoint ends byte-identical to an
// uninterrupted run, counters included. A "combine" checkpoint's runs
// were folded (min-label's fold is exact): the states still match, the
// send-side counters too, and only MessagesApplied is short by the folds.
// A torn msgs.<p> is still ErrTruncated, runs section or not.
func TestSortedCheckpointResume(t *testing.T) {
	edges := gen.RMAT(8, 1500, gen.NaturalRMAT, 74)
	gRef := buildDOS(t, edges)
	refRes, refVals := runMinLabel(t, gRef, partitionedOpts(gRef))
	if refRes.Iterations < 3 {
		t.Fatalf("converged in %d iterations; too few for mid-run resume", refRes.Iterations)
	}

	// midRunDir leaves the reshaped checkpoint of a run that died in
	// iteration 2.
	midRunDir := func(t *testing.T, fold bool, tear int) string {
		dir := t.TempDir()
		g := buildDOS(t, edges)
		opts := partitionedOpts(g)
		opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Keep: 1 << 20}
		runMinLabel(t, g, opts)
		for it := 2; it <= refRes.Iterations; it++ {
			os.RemoveAll(filepath.Join(dir, ckptDirName(it)))
		}
		sortedRunCheckpoint(t, dir, opts.MsgBufferBytes, fold, tear)
		return dir
	}

	for _, mode := range []struct {
		name string
		fold bool
	}{{"sorted", false}, {"combine", true}} {
		t.Run(mode.name, func(t *testing.T) {
			dir := midRunDir(t, mode.fold, 0)
			runs, err := filepath.Glob(filepath.Join(dir, ckptDirName(1), "runs.*"))
			if err != nil || len(runs) != refRes.Partitions {
				t.Fatalf("checkpoint 1 has runs sections %v (err=%v), want one per partition", runs, err)
			}
			g := buildDOS(t, edges)
			opts := partitionedOpts(g)
			opts.Checkpoint = CheckpointOptions{Dir: dir, Every: 1, Resume: true}
			eng := newMinLabelEngine(t, g, opts)
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			vals, err := eng.Values()
			must(t, err)
			got, want := stripDurability(res), stripDurability(refRes)
			if mode.fold {
				if got.MessagesApplied >= want.MessagesApplied {
					t.Errorf("applied %d, want fewer than the uninterrupted %d: folded records are applied once",
						got.MessagesApplied, want.MessagesApplied)
				}
				got.MessagesApplied = want.MessagesApplied
			}
			if got != want {
				t.Errorf("resumed result %+v, uninterrupted %+v", res, refRes)
			}
			if !slices.Equal(vals, refVals) {
				t.Fatalf("states %+v, uninterrupted %+v", vals, refVals)
			}

			if err := resumeWith(t, edges, midRunDir(t, mode.fold, 3), ""); !errors.Is(err, checkpoint.ErrTruncated) {
				t.Fatalf("Resume with a torn msgs section = %v, want ErrTruncated", err)
			}
		})
	}
}
