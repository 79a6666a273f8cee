package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// flatFile is a device file as it was stored before extents: one slice,
// grown by appending zeros.
type flatFile []byte

// writeAt is the flat slice's WriteAt: a gap before off reads as zeros.
func (f flatFile) writeAt(p []byte, off int64) flatFile {
	if grow := off + int64(len(p)) - int64(len(f)); grow > 0 {
		f = append(f, make([]byte, grow)...)
	}
	copy(f[off:], p)
	return f
}

// TestDeviceMatchesFlatModel drives a capacity-limited FaultDevice with a
// random interleaving of everything that changes a file's length or
// bytes — writes in place, at the end and past it, appends, truncation
// both ways, Create over a live file, Remove, and crashes that tear a
// write — and after every step ReadAt, Size and Used answer what a flat
// []byte per file would. Offsets and lengths cluster around the extent
// size, and whatever a file grows over — a gap, a tail cut off and grown
// again inside the extent that held it — must read as zeros.
func TestDeviceMatchesFlatModel(t *testing.T) {
	const capacity = 8 * extentBytes
	rng := rand.New(rand.NewSource(5))
	fd := NewFaultDevice(SSD, Options{Capacity: capacity})
	names := []string{"a", "b", "c"}
	model := map[string]flatFile{}
	used := func() (n int64) {
		for _, f := range model {
			n += int64(len(f))
		}
		return n
	}
	// near returns a length or offset at, just below or just above a
	// multiple of the extent size, or anywhere below limit.
	near := func(limit int64) int64 {
		if rng.Intn(3) == 0 || limit < extentBytes {
			return rng.Int63n(limit + 1)
		}
		return min(limit, max(0, rng.Int63n(limit/extentBytes+1)*extentBytes+rng.Int63n(5)-2))
	}
	payload := func() []byte {
		p := make([]byte, near(3*extentBytes))
		rng.Read(p)
		return p
	}
	open := func(name string) *File {
		if _, ok := model[name]; !ok {
			if _, err := fd.Create(name); err != nil {
				t.Fatal(err)
			}
			model[name] = flatFile{}
		}
		f, err := fd.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fits := func(name string, end int64) bool {
		return used()+max(0, end-int64(len(model[name]))) <= capacity
	}

	for step := 0; step < 3000; step++ {
		name := names[rng.Intn(len(names))]
		f := open(name)
		size := int64(len(model[name]))
		what := ""
		switch op := rng.Intn(10); op {
		case 0, 1, 2: // WriteAt: in place, at the end, or past it
			p, off := payload(), near(size+extentBytes)
			what = fmt.Sprintf("WriteAt(%d bytes, %d)", len(p), off)
			_, err := f.WriteAt(p, off)
			if fits(name, off+int64(len(p))) {
				model[name] = model[name].writeAt(p, off)
			} else if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("step %d: %s on a full device: %v", step, what, err)
			}
		case 3, 4:
			p := payload()
			what = fmt.Sprintf("Append(%d bytes)", len(p))
			off, err := f.Append(p)
			if fits(name, size+int64(len(p))) {
				if off != size {
					t.Fatalf("step %d: %s landed at %d, want %d", step, what, off, size)
				}
				model[name] = model[name].writeAt(p, size)
			} else if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("step %d: %s on a full device: %v", step, what, err)
			}
		case 5, 6:
			to := near(size + 2*extentBytes)
			what = fmt.Sprintf("Truncate(%d)", to)
			err := f.Truncate(to)
			switch {
			case !fits(name, to):
				if !errors.Is(err, ErrNoSpace) {
					t.Fatalf("step %d: %s on a full device: %v", step, what, err)
				}
			case to <= size:
				model[name] = model[name][:to]
			default:
				model[name] = model[name].writeAt(nil, to)
			}
		case 7:
			what = "Create over"
			if _, err := fd.Create(name); err != nil {
				t.Fatal(err)
			}
			model[name] = flatFile{}
		case 8:
			what = "Remove"
			if err := fd.Remove(name); err != nil {
				t.Fatal(err)
			}
			delete(model, name)
		case 9: // a crash tears the write: some prefix of it is on the device
			p, off := payload(), near(size+extentBytes)
			what = fmt.Sprintf("torn WriteAt(%d bytes, %d)", len(p), off)
			fd.Arm(FaultPlan{Seed: uint64(step), CrashAtOp: 1, TornWrites: true})
			if _, err := f.WriteAt(p, off); !errors.Is(err, ErrCrashed) {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
			fd.Disarm()
			// The prefix that landed: past the old end it shows in the
			// size; inside the file, in the bytes.
			torn := int(max(0, f.Size()-off))
			if f.Size() == size {
				got := make([]byte, min(int64(len(p)), max(0, size-off)))
				f.ReadAt(got, off)
				for torn = 0; torn < len(got) && got[torn] == p[torn]; torn++ {
				}
			}
			if torn > 0 && fits(name, off+int64(torn)) {
				model[name] = model[name].writeAt(p[:torn], off)
			}
		}
		if _, ok := model[name]; !ok {
			if fd.Exists(name) {
				t.Fatalf("step %d: %s left the file", step, what)
			}
			continue
		}
		want := model[name]
		if f.Size() != int64(len(want)) || fd.Used() != used() {
			t.Fatalf("step %d: %s: size %d, used %d; the model %d, %d", step, what, f.Size(), fd.Used(), len(want), used())
		}
		// The whole file every so often, a random range otherwise.
		lo, hi := int64(0), int64(len(want))
		if step%16 != 0 && hi > 0 {
			lo = rng.Int63n(hi)
			hi = lo + rng.Int63n(hi-lo+1)
		}
		got := make([]byte, hi-lo+10)
		n, err := f.ReadAt(got, lo)
		if err != nil || n != int(min(hi+10, int64(len(want)))-lo) || !bytes.Equal(got[:n], want[lo:lo+int64(n)]) {
			t.Fatalf("step %d: %s: ReadAt [%d,%d) of %d returned %d bytes, %v; equal to the model: %v",
				step, what, lo, hi+10, len(want), n, err, bytes.Equal(got[:n], want[lo:lo+int64(n)]))
		}
	}
}
