package extsort

import (
	"bytes"
	"cmp"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"graphz/internal/storage"
)

// sortRef is Sort as it stood before run formation became a radix sort
// and the merge a loser tree over block views (commit c2be463, its Key
// path): a comparison sort on (key, position) pairs per chunk, a
// container/heap merge that copies every record through ReadFull and
// Write. It is the reference for what Sort must leave on the device and
// what device traffic it may take to do so.
func sortRef(cfg Config, input, output string) error {
	if cfg.MemoryBudget < MinMemoryBudget {
		cfg.MemoryBudget = MinMemoryBudget
	}
	if cfg.FanIn <= 1 {
		cfg.FanIn = DefaultFanIn
	}
	if cfg.TempPrefix == "" {
		cfg.TempPrefix = output + ".run"
	}
	st := cfg.Stats
	in, err := cfg.Dev.Open(input)
	if err != nil {
		return err
	}
	st.RecordsIn = in.Size() / int64(cfg.RecordSize)

	recSz := cfg.RecordSize
	buf := make([]byte, max(int(cfg.MemoryBudget)/recSz, 1)*recSz)
	r := storage.NewReader(in)
	var runs []string
	for {
		n, err := readUpTo(r, buf)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		chunk := buf[:n]
		type keyed struct {
			k   uint64
			idx int32
		}
		ks := make([]keyed, n/recSz)
		for i := range ks {
			ks[i] = keyed{k: cfg.Key(chunk[i*recSz : (i+1)*recSz]), idx: int32(i)}
		}
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
		name := fmt.Sprintf("%s%d", cfg.TempPrefix, len(runs))
		if err := storage.WriteAll(cfg.Dev, name, out); err != nil {
			return err
		}
		runs = append(runs, name)
	}
	st.Runs = len(runs)
	if cfg.RemoveInput {
		cfg.Dev.Remove(input)
	}

	if len(runs) == 0 {
		_, err := cfg.Dev.Create(output)
		return err
	}
	pass := 0
	for len(runs) > 1 {
		var next []string
		for lo := 0; lo < len(runs); lo += cfg.FanIn {
			group := runs[lo:min(lo+cfg.FanIn, len(runs))]
			dst := output
			if len(runs) > cfg.FanIn {
				dst = fmt.Sprintf("%s.m%d_%d", cfg.TempPrefix, pass, len(next))
			}
			written, err := mergeGroupRef(cfg, group, dst)
			if err != nil {
				return err
			}
			if dst == output {
				st.RecordsOut = written
			}
			for _, r := range group {
				cfg.Dev.Remove(r)
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
		cfg.Dev.Remove(runs[0])
	}
	return nil
}

type refSource struct {
	r   *storage.Reader
	cur []byte
	key uint64
	ord int
}

type refHeap []*refSource

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].ord < h[j].ord
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refSource)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func mergeGroupRef(cfg Config, group []string, dst string) (int64, error) {
	h := &refHeap{}
	for ord, name := range group {
		f, err := cfg.Dev.Open(name)
		if err != nil {
			return 0, err
		}
		ms := &refSource{r: storage.NewReader(f), cur: make([]byte, cfg.RecordSize), ord: ord}
		if err := ms.r.ReadFull(ms.cur); err != nil {
			if err == io.EOF {
				continue
			}
			return 0, err
		}
		ms.key = cfg.Key(ms.cur)
		*h = append(*h, ms)
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
		top := (*h)[0]
		copy(rec, top.cur)
		switch err := top.r.ReadFull(top.cur); err {
		case nil:
			top.key = cfg.Key(top.cur)
			heap.Fix(h, 0)
		case io.EOF:
			heap.Pop(h)
		default:
			return written, err
		}
		if _, err := w.Write(rec); err != nil {
			return written, err
		}
		written++
	}
	return written, w.Flush()
}

// keyShape is a distribution of keys over the records of an input: raw is
// the i-th of n records' leading word, key what the sort orders it by.
type keyShape struct {
	name string
	raw  func(rng *rand.Rand, i, n int) uint64
	key  func(raw uint64, bits int) uint64
}

func random(rng *rand.Rand, _, _ int) uint64 { return rng.Uint64() }
func itself(raw uint64, _ int) uint64        { return raw }

var keyShapes = []keyShape{
	{"all-equal", random, func(uint64, int) uint64 { return 7 }},
	{"two-values", random, func(raw uint64, _ int) uint64 { return raw >> 3 & 1 }},
	{"high-half-only", random, func(raw uint64, bits int) uint64 { return raw >> (bits / 2) << (bits / 2) }},
	{"full-width", random, itself},
	{"sorted", func(_ *rand.Rand, i, _ int) uint64 { return uint64(i) }, itself},
	{"reversed", func(_ *rand.Rand, i, n int) uint64 { return uint64(n - i) }, itself},
	{"duplicate-heavy", random, func(raw uint64, _ int) uint64 { return raw % 500 }},
}

// TestSortMatchesReference: over record sizes, key shapes, fan-ins and
// inputs that form one run, a full fan-in of runs (one merge pass) and one
// run more (two passes), Sort leaves the bytes sortRef leaves, reports
// the Stats it reports, and takes the same device traffic, in total and
// file by file — reads, writes, bytes, seeks, and the hits of a page cache
// small enough that they depend on the order the operations come in.
func TestSortMatchesReference(t *testing.T) {
	for _, recSz := range []int{4, 8, 12, 16} {
		t.Run(fmt.Sprintf("rec=%d", recSz), func(t *testing.T) {
			t.Parallel() // the reference is slow, and there are 42 cases a record size
			for _, shape := range keyShapes {
				for _, fanIn := range []int{2, 16} {
					for _, runs := range []int{1, fanIn, fanIn + 1} {
						name := fmt.Sprintf("rec=%d/%s/fanin=%d/runs=%d", recSz, shape.name, fanIn, runs)
						perRun := MinMemoryBudget / recSz
						n := (runs-1)*perRun + perRun/3
						rng := rand.New(rand.NewSource(int64(n)))

						// A record is its leading word (the whole record when
						// that is four bytes long) and a random payload.
						word := min(recSz, 8)
						input := make([]byte, n*recSz)
						rng.Read(input)
						for i := 0; i < n; i++ {
							var raw [8]byte
							binary.LittleEndian.PutUint64(raw[:], shape.raw(rng, i, n))
							copy(input[i*recSz:], raw[:word])
						}
						key := func(rec []byte) uint64 {
							var raw [8]byte
							copy(raw[:], rec[:word])
							return shape.key(binary.LittleEndian.Uint64(raw[:]), 8*word)
						}

						type outcome struct {
							out   []byte
							stats Stats
							dev   storage.Stats
							files map[string]storage.Stats
							left  []string
						}
						run := func(sort func(Config, string, string) error) outcome {
							dev := storage.NewDevice(storage.SSD, storage.Options{PageCacheBytes: 1 << 20})
							if err := storage.WriteAll(dev, "in", input); err != nil {
								t.Fatal(err)
							}
							dev.ResetStats()
							var o outcome
							cfg := Config{Dev: dev, RecordSize: recSz, Key: key, MemoryBudget: MinMemoryBudget, FanIn: fanIn, Stats: &o.stats}
							if err := sort(cfg, "in", "out"); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							o.dev, o.files, o.left = dev.Stats(), dev.FileStats(), dev.List()
							var err error
							if o.out, err = storage.ReadAllFile(dev, "out"); err != nil {
								t.Fatal(err)
							}
							return o
						}
						want, got := run(sortRef), run(Sort)
						if want.stats.Runs != runs {
							t.Fatalf("%s: the reference formed %d runs", name, want.stats.Runs)
						}
						if !bytes.Equal(got.out, want.out) {
							t.Errorf("%s: output differs from the reference's", name)
						}
						if got.stats != want.stats {
							t.Errorf("%s: Stats %+v, reference %+v", name, got.stats, want.stats)
						}
						if got.dev != want.dev {
							t.Errorf("%s: device traffic %v, reference %v", name, got.dev, want.dev)
						}
						if !reflect.DeepEqual(got.files, want.files) {
							t.Errorf("%s: per-file traffic %v, reference %v", name, got.files, want.files)
						}
						if !slices.Equal(got.left, want.left) {
							t.Errorf("%s: files left %v, reference %v", name, got.left, want.left)
						}
					}
				}
			}
		})
	}
}

// TestSortOpOrderMatchesReference: the device operations come in the
// reference's order, not only in its number. 12-byte records do not
// divide the block, and the input is in order but for the second run's
// first record, which goes out before everything: the output then runs
// one record ahead of the first run, so the step of the merge that writes
// the record straddling two output blocks is the step that reads the one
// straddling two blocks of the run — a block read and a block write in
// one step. Crashing the device at each operation in turn and comparing
// what is on it then (which files, how long) tells which came first.
func TestSortOpOrderMatchesReference(t *testing.T) {
	const recSz, budget, fanIn = 12, 512 << 10, 2
	perRun := budget / recSz
	n := 2*perRun + perRun/3 // three runs, two passes
	input := make([]byte, n*recSz)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(input[i*recSz:], uint64(i+1))
	}
	binary.LittleEndian.PutUint64(input[perRun*recSz:], 0)
	key := func(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) }

	// crashAt returns the device's files and sizes after a sort that
	// crashed at operation op (-1 where the sort failed for it: a removal
	// that fails does not fail the sort), and the operations counted —
	// all of them for op 0, no crash.
	crashAt := func(sort func(Config, string, string) error, op int64) (map[string]int64, int64) {
		fd := storage.NewFaultDevice(storage.NullDevice, storage.Options{})
		if err := storage.WriteAll(fd.Device, "in", input); err != nil {
			t.Fatal(err)
		}
		fd.Arm(storage.FaultPlan{CrashAtOp: op})
		cfg := Config{Dev: fd.Device, RecordSize: recSz, Key: key, MemoryBudget: budget, FanIn: fanIn, Stats: new(Stats)}
		sizes := make(map[string]int64)
		if err := sort(cfg, "in", "out"); err != nil {
			if op == 0 {
				t.Fatal(err)
			}
			sizes["sort failed"] = -1
		}
		for _, name := range fd.List() {
			sizes[name], _ = fd.Size(name)
		}
		return sizes, fd.Ops()
	}
	_, ops := crashAt(sortRef, 0)
	if _, got := crashAt(Sort, 0); got != ops {
		t.Fatalf("%d operations, the reference %d", got, ops)
	}
	for op := int64(1); op <= ops; op++ {
		want, _ := crashAt(sortRef, op)
		if got, _ := crashAt(Sort, op); !reflect.DeepEqual(got, want) {
			t.Errorf("crashed at operation %d of %d: device holds %v, the reference %v", op, ops, got, want)
		}
	}
}
