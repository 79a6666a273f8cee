// Package extsort implements external k-way merge sort of fixed-size
// records stored on the simulated device. It is the preprocessing
// substrate the paper relies on: degree-ordered conversion performs four
// external sorts, and the GraphChi-style baseline shards with two.
//
// The algorithm is the classic one: the input is read in memory-budget
// sized chunks, each chunk is sorted in memory and spilled as a sorted
// run, and runs are merged fan-in at a time, in as many passes as that
// takes. Records are ordered by a uint64 key, stably. A chunk is sorted
// by a least-significant-digit radix sort over (key, position) pairs that
// skips the digits on which all its keys agree; runs are merged by a
// loser tree over (key, run) that takes each record where it lies in its
// run's block buffer and puts it where it goes in the output's. What
// reaches the device — run sizes, file names, every block-sized read and
// write — does not depend on how the sorting in memory is done.
package extsort

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

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
	// Key maps a record to its uint64 sort key (ascending order). Records
	// with equal keys keep their input order.
	Key func(rec []byte) uint64
	// MemoryBudget bounds the records of one chunk: a run is
	// MemoryBudget/RecordSize records (fewer only for the last), which is
	// what fixes the number of runs and merge passes. It is the modeled
	// machine's memory, not the host's. Beside the chunk a Sort holds a
	// second buffer of the same size, which the sorted records are moved
	// into and spilled from, and two arrays of 16-byte (key, position)
	// pairs, one pair per record — 5x the chunk for 8-byte records, 3.7x
	// for 12-byte ones — made once, no larger than the input needs, and
	// reused for every chunk; and one block buffer per merge input and
	// one for the output, reused for every group and pass.
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
	// RemoveErrors counts the files — the input, temporaries — Sort
	// could not remove, each once. They leak on the device (whose own
	// Stats.RemoveErrors counts failed calls, so a temporary tried again
	// at exit is two there), but the sorted output is unaffected, so
	// Sort does not fail.
	RemoveErrors int64
}

// sorter is the state of one Sort: its statistics, the temporary files it
// has on the device, and the scratch every chunk and merge group reuses.
type sorter struct {
	cfg Config
	st  Stats
	// temps are the temporary files created and not yet removed, in
	// creation order. Sort removes whatever is left on every exit.
	temps []string

	chunk  []byte // the records of one chunk as read
	sorted []byte // the same records in order: what is spilled
	a, b   []pair // radix sort ping-pong

	// Merge state: the inputs of the group being merged, each with its
	// current record (a view into its Reader, which keeps its block
	// buffer from group to group), and the tournament among them.
	readers []storage.Reader
	recs    [][]byte
	tree    []entry
	out     storage.Writer
}

// entry is the current record of one merge input as the tournament sees
// it. The record with the smaller key goes out first, and of two with
// equal keys the one from the earlier run, which keeps the sort stable:
// ord is the input's position in the group — or, once the input is
// exhausted, that plus the group's size under the largest key, so that it
// loses to every input that still has a record.
type entry struct {
	key uint64
	ord int
}

func (e entry) beats(o entry) bool {
	return e.key < o.key || e.key == o.key && e.ord < o.ord
}

// pair is one record of a chunk as the radix sort sees it.
type pair struct {
	key uint64
	idx uint32 // position in the chunk
}

// remove deletes a file Sort no longer needs, surfacing a failure in the
// stats and the metrics registry instead of dropping it: a leaked file is
// an audit concern, not a sort failure.
func (s *sorter) remove(name string) {
	if err := s.cfg.Dev.Remove(name); err != nil {
		s.st.RemoveErrors++
		s.cfg.Obs.Counter(RemoveErrorsCounter).Inc()
	}
}

// createTemp creates a temporary file, on the books before it is on the
// device.
func (s *sorter) createTemp(name string) (*storage.File, error) {
	s.temps = append(s.temps, name)
	return s.cfg.Dev.Create(name)
}

// removeTemp removes a temporary file and takes it off the books. One
// whose removal fails stays on them and is not counted yet: Sort's exit
// tries it once more, and counts it if it is still there.
func (s *sorter) removeTemp(name string) {
	if s.cfg.Dev.Remove(name) != nil {
		return
	}
	if i := slices.Index(s.temps, name); i >= 0 {
		s.temps = slices.Delete(s.temps, i, i+1)
	}
}

// Sort sorts the records of the input file into the output file (which is
// created or truncated). Input and output may not be the same file. Every
// temporary file it creates is removed before it returns, whether it
// succeeds or not.
func Sort(cfg Config, input, output string) error {
	if cfg.RecordSize <= 0 {
		return fmt.Errorf("extsort: record size %d must be positive", cfg.RecordSize)
	}
	if cfg.Key == nil {
		return fmt.Errorf("extsort: a Key function is required")
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

	s := &sorter{cfg: cfg}
	if cfg.Stats != nil {
		// Registered before the cleanup, so it runs after it and
		// captures its RemoveErrors.
		defer func() { *cfg.Stats = s.st }()
	}
	defer func() {
		for _, t := range s.temps {
			s.remove(t)
		}
	}()

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
	s.st.RecordsIn = nRecords

	// Charge the comparison work up front: ~N log2 N record moves
	// across run formation plus all merge passes.
	if cfg.Clock != nil && nRecords > 1 {
		levels := int64(math.Ceil(math.Log2(float64(nRecords))))
		cfg.Clock.ComputeUnits(nRecords*levels, sim.CostRecordSort)
	}

	runs, err := s.formRuns(in, nRecords)
	if err != nil {
		return err
	}
	s.st.Runs = len(runs)
	if cfg.RemoveInput {
		s.remove(input)
	}
	return s.mergeRuns(runs, output)
}

// formRuns splits the input into sorted runs and returns their file names.
func (s *sorter) formRuns(in *storage.File, nRecords int64) ([]string, error) {
	recSz := s.cfg.RecordSize
	perRun := max(int(s.cfg.MemoryBudget)/recSz, 1)
	if int64(perRun) > nRecords {
		perRun = int(nRecords)
	}
	s.chunk = make([]byte, perRun*recSz)
	s.sorted = make([]byte, perRun*recSz)
	s.a, s.b = make([]pair, perRun), make([]pair, perRun)

	r := storage.NewReader(in)
	var runs []string
	for {
		// Read up to a full buffer of whole records.
		n, err := readUpTo(r, s.chunk)
		if err != nil {
			return nil, fmt.Errorf("extsort: reading input: %w", err)
		}
		if n == 0 {
			return runs, nil
		}
		if n%recSz != 0 {
			return nil, fmt.Errorf("extsort: torn record: read %d bytes", n)
		}
		s.sortChunk(n / recSz)
		name := fmt.Sprintf("%s%d", s.cfg.TempPrefix, len(runs))
		f, err := s.createTemp(name)
		if err == nil {
			err = storage.WriteFullAt(f, s.sorted[:n], 0)
		}
		if err != nil {
			return nil, fmt.Errorf("extsort: spilling run: %w", err)
		}
		runs = append(runs, name)
	}
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

// radixBits is the digit width of the chunk sort: 2^11 counters fit the
// first-level cache, and a 20-bit key is two passes.
const radixBits = 11

// sortChunk leaves the first n records of s.chunk in s.sorted, ordered by
// key and, among equal keys, by position — the order a comparison sort on
// (key, position) gives, so which sort formed a run cannot be told from
// its bytes. Each pass is a stable counting sort on one digit of the key,
// least significant first, and the pairs start in position order; a digit
// is taken only where the keys differ (OR ^ AND of them all), so a key
// with 20 significant bits costs two passes however wide the type is.
// The last pass moves the records themselves to their places in s.sorted
// instead of the pairs.
func (s *sorter) sortChunk(n int) {
	recSz, key := s.cfg.RecordSize, s.cfg.Key
	chunk, sorted := s.chunk[:n*recSz], s.sorted[:n*recSz]
	a, b := s.a[:n], s.b[:n]
	or, and := uint64(0), ^uint64(0)
	for i := range a {
		k := key(chunk[i*recSz : (i+1)*recSz])
		a[i] = pair{key: k, idx: uint32(i)}
		or |= k
		and &= k
	}
	differ := or ^ and
	if differ == 0 {
		copy(sorted, chunk)
		return
	}
	const mask = 1<<radixBits - 1
	for differ != 0 {
		shift := bits.TrailingZeros64(differ)
		differ &^= mask << shift
		var next [1 << radixBits]uint32 // where the next pair of each digit goes
		for i := range a {
			next[a[i].key>>shift&mask]++
		}
		sum := uint32(0)
		for d, c := range next {
			next[d], sum = sum, sum+c
		}
		if differ == 0 {
			for _, p := range a {
				d := p.key >> shift & mask
				to, from := int(next[d])*recSz, int(p.idx)*recSz
				moveRecord(sorted[to:to+recSz], chunk[from:from+recSz])
				next[d]++
			}
			return
		}
		for _, p := range a {
			d := p.key >> shift & mask
			b[next[d]] = p
			next[d]++
		}
		a, b = b, a
	}
}

// moveRecord is copy for two records of one length, without the call for
// the lengths preprocessing sorts: pairs, edges and triads of 32-bit
// words.
func moveRecord(dst, src []byte) {
	switch len(src) {
	case 8:
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
	case 12:
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
		binary.LittleEndian.PutUint32(dst[8:], binary.LittleEndian.Uint32(src[8:]))
	default:
		copy(dst, src)
	}
}

// mergeRuns merges the runs into output, in as many passes as the fan-in
// requires. A single run is renamed by copy (the device has no rename).
func (s *sorter) mergeRuns(runs []string, output string) error {
	cfg := s.cfg
	if len(runs) == 0 {
		_, err := cfg.Dev.Create(output)
		return err
	}
	if len(runs) == 1 {
		// The run is the chunk still in memory, but the copy is the
		// device traffic a rename costs here: read it back.
		f, err := cfg.Dev.Open(runs[0])
		if err != nil {
			return err
		}
		data := s.sorted[:f.Size()]
		if err := storage.ReadFullAt(f, data, 0); err != nil {
			return fmt.Errorf("extsort: reading %q: %w", runs[0], err)
		}
		if err := storage.WriteAll(cfg.Dev, output, data); err != nil {
			return err
		}
		s.st.RecordsOut = int64(len(data) / cfg.RecordSize)
		return nil
	}
	k := min(cfg.FanIn, len(runs))
	s.readers, s.recs, s.tree = make([]storage.Reader, k), make([][]byte, k), make([]entry, 2*k)
	for pass := 0; len(runs) > 1; pass++ {
		var next []string
		for lo := 0; lo < len(runs); lo += cfg.FanIn {
			group := runs[lo:min(lo+cfg.FanIn, len(runs))]
			dst, temp := output, len(runs) > cfg.FanIn
			if temp {
				dst = fmt.Sprintf("%s.m%d_%d", cfg.TempPrefix, pass, len(next))
			}
			written, err := s.mergeGroup(group, dst, temp)
			if err != nil {
				return err
			}
			if dst == output {
				s.st.RecordsOut = written
			}
			for _, run := range group {
				s.removeTemp(run)
			}
			next = append(next, dst)
		}
		runs = next
		s.st.MergePasses = pass + 1
	}
	return nil
}

// advance moves input i of k to its next record and returns its entry.
func (s *sorter) advance(i, k int) (entry, error) {
	rec, err := s.readers[i].Next(s.cfg.RecordSize)
	s.recs[i] = rec
	if err == io.EOF {
		return entry{key: math.MaxUint64, ord: i + k}, nil
	}
	if err != nil {
		return entry{}, err
	}
	return entry{key: s.cfg.Key(rec), ord: i}, nil
}

// play runs the tournament below node among k inputs. The inputs' entries
// are the leaves tree[k:2k] of a complete binary tree, node n's children
// 2n and 2n+1; play stores each match's loser at its node and returns the
// winner.
func (s *sorter) play(node, k int) entry {
	if node >= k {
		return s.tree[node]
	}
	w, l := s.play(2*node, k), s.play(2*node+1, k)
	if l.beats(w) {
		w, l = l, w
	}
	s.tree[node] = l
	return w
}

// mergeGroup merges a group of sorted runs into dst, a temporary file or
// the output, with a loser tree: each node keeps the loser of the match
// played there and the root's winner (kept in tree[0]) is the next record
// out, so replacing it costs one match per level on the way up from its
// leaf. It returns the number of records written.
func (s *sorter) mergeGroup(group []string, dst string, temp bool) (int64, error) {
	cfg, k := s.cfg, len(group)
	tree := s.tree[:2*k]
	for i, name := range group {
		f, err := cfg.Dev.Open(name)
		if err != nil {
			return 0, fmt.Errorf("extsort: opening run %q: %w", name, err)
		}
		s.readers[i].Reset(f, 0, f.Size())
		if tree[k+i], err = s.advance(i, k); err != nil {
			return 0, fmt.Errorf("extsort: priming run %q: %w", name, err)
		}
	}
	tree[0] = s.play(1, k)

	create := cfg.Dev.Create
	if temp {
		create = s.createTemp
	}
	f, err := create(dst)
	if err != nil {
		return 0, err
	}
	s.out.Reset(f, 0)
	var written int64
	// An exhausted input loses to every other, so the winner is one only
	// when all are.
	for ; tree[0].ord < k; written++ {
		// The record is copied out before its run advances (the view
		// dies there) and committed after: a run's block read comes
		// before the output's block write.
		i := tree[0].ord
		moveRecord(s.out.Next(cfg.RecordSize), s.recs[i])
		e, err := s.advance(i, k)
		if err != nil {
			return written, fmt.Errorf("extsort: reading run %q: %w", group[i], err)
		}
		if err := s.out.Commit(); err != nil {
			return written, fmt.Errorf("extsort: writing %q: %w", dst, err)
		}
		for node := (k + i) / 2; node > 0; node /= 2 {
			if tree[node].beats(e) {
				tree[node], e = e, tree[node]
			}
		}
		tree[0] = e
	}
	return written, s.out.Flush()
}
