// Package extsort implements external k-way merge sort of fixed-size
// records stored on the simulated device. It is the preprocessing
// substrate the paper relies on: degree-ordered conversion performs four
// external sorts, and the GraphChi-style baseline shards with two.
//
// The algorithm is the classic one: the input is read in memory-budget
// sized chunks, each chunk is sorted in memory and spilled as a sorted
// run, and runs are merged with a loser-tree style heap. When the number
// of runs exceeds the merge fan-in, merging proceeds in multiple passes.
package extsort

import (
	"cmp"
	"container/heap"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"graphz/internal/obs"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// DefaultFanIn is the maximum number of runs merged in one pass.
const DefaultFanIn = 16

// MinMemoryBudget is the floor applied to Config.MemoryBudget so a sort
// can always hold at least a few records per merge input.
const MinMemoryBudget = 64 * 1024

// Config describes one external sort.
type Config struct {
	// Dev is the device holding input, output, and temporary runs.
	Dev *storage.Device
	// Clock receives compute charges for comparisons and moves; nil
	// disables compute accounting.
	Clock *sim.Clock
	// RecordSize is the fixed record length in bytes; the input file
	// size must be a multiple of it.
	RecordSize int
	// Less compares two records. Ignored when Key is set.
	Less func(a, b []byte) bool
	// Key, when non-nil, maps a record to a uint64 sort key (ascending
	// order). The key path avoids per-comparison decoding and is
	// several times faster; all the preprocessing pipelines use it.
	Key func(rec []byte) uint64
	// MemoryBudget bounds the bytes of records held in memory at once
	// (run formation buffer; merge buffers are carved from it too).
	MemoryBudget int64
	// TempPrefix names temporary run files; defaults to output+".run".
	TempPrefix string
	// FanIn bounds runs merged per pass; defaults to DefaultFanIn.
	FanIn int
	// RemoveInput deletes the input file once its sorted runs are
	// formed, halving the peak device footprint. Use only when the
	// caller owns the input.
	RemoveInput bool
	// Stats, when non-nil, receives the sort's run/merge totals and any
	// temp-file removal failures.
	Stats *Stats
	// Obs, when non-nil, counts removal failures on
	// RemoveErrorsCounter; nil disables metric collection.
	Obs *obs.Registry
}

// RemoveErrorsCounter is the registry counter incremented when a
// temporary- or input-file removal fails. It shares its name with the
// engine's runtime-file cleanup accounting, so one counter tracks every
// leaked file.
const RemoveErrorsCounter = "graphz_remove_errors_total"

// Stats reports what one Sort did.
type Stats struct {
	// Runs is the number of sorted runs formed from the input.
	Runs int
	// MergePasses counts merge passes over the run set (0 when the
	// input formed at most one run).
	MergePasses int
	// RecordsIn/RecordsOut are the record counts read from the input and
	// written to the output.
	RecordsIn  int64
	RecordsOut int64
	// RemoveErrors counts input/temp removals that failed. The files
	// leak on the device (its Stats.RemoveErrors counts them too), but
	// the sorted output is unaffected, so Sort does not fail.
	RemoveErrors int64
}

// removeTemp deletes a file Sort no longer needs, surfacing failures in
// the stats and the metrics registry instead of dropping them: a leaked
// run is an audit concern, not a sort failure.
func removeTemp(cfg Config, st *Stats, name string) {
	if err := cfg.Dev.Remove(name); err != nil {
		st.RemoveErrors++
		cfg.Obs.Counter(RemoveErrorsCounter).Inc()
	}
}

// Sort sorts the records of the input file into the output file (which is
// created or truncated). Input and output may not be the same file.
func Sort(cfg Config, input, output string) error {
	if cfg.RecordSize <= 0 {
		return fmt.Errorf("extsort: record size %d must be positive", cfg.RecordSize)
	}
	if cfg.Less == nil && cfg.Key == nil {
		return fmt.Errorf("extsort: a Less or Key function is required")
	}
	if input == output {
		return fmt.Errorf("extsort: input and output are both %q", input)
	}
	if cfg.MemoryBudget < MinMemoryBudget {
		cfg.MemoryBudget = MinMemoryBudget
	}
	if cfg.FanIn <= 1 {
		cfg.FanIn = DefaultFanIn
	}
	if cfg.TempPrefix == "" {
		cfg.TempPrefix = output + ".run"
	}

	st := &Stats{}
	if cfg.Stats != nil {
		// Registered before the cleanup defers, so it runs after them and
		// captures their RemoveErrors.
		defer func() { *cfg.Stats = *st }()
	}

	in, err := cfg.Dev.Open(input)
	if err != nil {
		return fmt.Errorf("extsort: %w", err)
	}
	size := in.Size()
	if size%int64(cfg.RecordSize) != 0 {
		return fmt.Errorf("extsort: %q size %d is not a multiple of record size %d",
			input, size, cfg.RecordSize)
	}
	nRecords := size / int64(cfg.RecordSize)
	st.RecordsIn = nRecords

	// Charge the comparison work up front: ~N log2 N record moves
	// across run formation plus all merge passes.
	if cfg.Clock != nil && nRecords > 1 {
		levels := int64(math.Ceil(math.Log2(float64(nRecords))))
		cfg.Clock.ComputeUnits(nRecords*levels, sim.CostRecordSort)
	}

	runs, err := formRuns(cfg, in)
	if err != nil {
		return err
	}
	st.Runs = len(runs)
	if cfg.RemoveInput {
		removeTemp(cfg, st, input)
	}
	defer func() {
		for _, r := range runs {
			removeTemp(cfg, st, r)
		}
	}()
	return mergeRuns(cfg, st, runs, output)
}

// formRuns splits the input into sorted runs and returns their file names.
func formRuns(cfg Config, in *storage.File) ([]string, error) {
	recSz := cfg.RecordSize
	perRun := int(cfg.MemoryBudget) / recSz
	if perRun < 1 {
		perRun = 1
	}
	buf := make([]byte, perRun*recSz)
	r := storage.NewReader(in)
	var runs []string
	for {
		// Read up to a full buffer of whole records.
		n, err := readUpTo(r, buf)
		if err != nil {
			return runs, fmt.Errorf("extsort: reading input: %w", err)
		}
		if n == 0 {
			break
		}
		if n%recSz != 0 {
			return runs, fmt.Errorf("extsort: torn record: read %d bytes", n)
		}
		chunk := buf[:n]
		if cfg.Key != nil {
			sortChunkByKey(chunk, recSz, cfg.Key)
		} else {
			sortChunk(chunk, recSz, cfg.Less)
		}
		name := fmt.Sprintf("%s%d", cfg.TempPrefix, len(runs))
		if err := storage.WriteAll(cfg.Dev, name, chunk); err != nil {
			return runs, fmt.Errorf("extsort: spilling run: %w", err)
		}
		runs = append(runs, name)
	}
	return runs, nil
}

// readUpTo fills buf as far as the stream allows, returning the byte count
// (0 at clean EOF).
func readUpTo(r *storage.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// sortChunk sorts the records inside chunk in place. It sorts an index
// permutation first and then applies it with one scratch buffer, so
// sort.Slice never swaps large byte ranges.
func sortChunk(chunk []byte, recSz int, less func(a, b []byte) bool) {
	n := len(chunk) / recSz
	if n < 2 {
		return
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rec := func(i int) []byte { return chunk[i*recSz : (i+1)*recSz] }
	sort.SliceStable(idx, func(a, b int) bool { return less(rec(idx[a]), rec(idx[b])) })
	out := make([]byte, len(chunk))
	for i, j := range idx {
		copy(out[i*recSz:(i+1)*recSz], rec(j))
	}
	copy(chunk, out)
}

// mergeRuns merges the runs into output, in as many passes as the fan-in
// requires. A single run is renamed by copy (the device has no rename).
func mergeRuns(cfg Config, st *Stats, runs []string, output string) error {
	if len(runs) == 0 {
		_, err := cfg.Dev.Create(output)
		return err
	}
	pass := 0
	for len(runs) > 1 {
		var next []string
		for lo := 0; lo < len(runs); lo += cfg.FanIn {
			hi := lo + cfg.FanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			group := runs[lo:hi]
			var dst string
			if len(runs) <= cfg.FanIn {
				dst = output
			} else {
				dst = fmt.Sprintf("%s.m%d_%d", cfg.TempPrefix, pass, len(next))
			}
			written, err := mergeGroup(cfg, group, dst)
			if err != nil {
				return err
			}
			if dst == output {
				st.RecordsOut = written
			}
			for _, r := range group {
				removeTemp(cfg, st, r)
			}
			next = append(next, dst)
		}
		runs = next
		pass++
	}
	st.MergePasses = pass
	if runs[0] != output {
		data, err := storage.ReadAllFile(cfg.Dev, runs[0])
		if err != nil {
			return err
		}
		if err := storage.WriteAll(cfg.Dev, output, data); err != nil {
			return err
		}
		st.RecordsOut = int64(len(data) / cfg.RecordSize)
		removeTemp(cfg, st, runs[0])
	}
	return nil
}

// sortChunkByKey sorts records by their uint64 keys, stably.
func sortChunkByKey(chunk []byte, recSz int, key func([]byte) uint64) {
	n := len(chunk) / recSz
	if n < 2 {
		return
	}
	type keyed struct {
		k   uint64
		idx int32
	}
	ks := make([]keyed, n)
	for i := range ks {
		ks[i] = keyed{k: key(chunk[i*recSz : (i+1)*recSz]), idx: int32(i)}
	}
	// (k, idx) is a total order, so any comparison sort yields the same
	// permutation; the typed one swaps without reflection.
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	out := make([]byte, len(chunk))
	for i, kv := range ks {
		copy(out[i*recSz:(i+1)*recSz], chunk[int(kv.idx)*recSz:int(kv.idx+1)*recSz])
	}
	copy(chunk, out)
}

// mergeSource is one run feeding the merge heap.
type mergeSource struct {
	r   *storage.Reader
	cur []byte
	key uint64 // cached sort key when key-based sorting is active
	ord int    // tie-break by run order for stability
}

// mergeHeap orders sources by their current record.
type mergeHeap struct {
	src   []*mergeSource
	less  func(a, b []byte) bool
	keyFn func([]byte) uint64
}

func (h *mergeHeap) Len() int { return len(h.src) }

func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.src[i], h.src[j]
	if h.keyFn != nil {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.ord < b.ord
	}
	if h.less(a.cur, b.cur) {
		return true
	}
	if h.less(b.cur, a.cur) {
		return false
	}
	return a.ord < b.ord
}

func (h *mergeHeap) Swap(i, j int) { h.src[i], h.src[j] = h.src[j], h.src[i] }

func (h *mergeHeap) Push(x any) { h.src = append(h.src, x.(*mergeSource)) }

func (h *mergeHeap) Pop() any {
	old := h.src
	n := len(old)
	x := old[n-1]
	h.src = old[:n-1]
	return x
}

// mergeGroup merges a group of sorted runs into dst with a k-way heap
// merge; on equal keys, records from earlier runs win, which keeps the
// sort stable. It returns the number of records written.
func mergeGroup(cfg Config, group []string, dst string) (int64, error) {
	h := &mergeHeap{less: cfg.Less, keyFn: cfg.Key}
	for ord, name := range group {
		f, err := cfg.Dev.Open(name)
		if err != nil {
			return 0, fmt.Errorf("extsort: opening run %q: %w", name, err)
		}
		ms := &mergeSource{r: storage.NewReader(f), cur: make([]byte, cfg.RecordSize), ord: ord}
		if err := ms.r.ReadFull(ms.cur); err != nil {
			if err == io.EOF {
				continue // empty run
			}
			return 0, fmt.Errorf("extsort: priming run %q: %w", name, err)
		}
		if h.keyFn != nil {
			ms.key = h.keyFn(ms.cur)
		}
		h.src = append(h.src, ms)
	}
	heap.Init(h)

	out, err := cfg.Dev.Create(dst)
	if err != nil {
		return 0, err
	}
	w := storage.NewWriter(out)
	rec := make([]byte, cfg.RecordSize)
	var written int64
	for h.Len() > 0 {
		// Copy the head out before advancing its run: ReadFull reuses cur.
		top := h.src[0]
		copy(rec, top.cur)
		switch err := top.r.ReadFull(top.cur); err {
		case nil:
			if h.keyFn != nil {
				top.key = h.keyFn(top.cur)
			}
			heap.Fix(h, 0)
		case io.EOF:
			heap.Pop(h)
		default:
			return written, fmt.Errorf("extsort: reading run %q: %w", group[top.ord], err)
		}
		if _, err := w.Write(rec); err != nil {
			return written, fmt.Errorf("extsort: writing %q: %w", dst, err)
		}
		written++
	}
	return written, w.Flush()
}
