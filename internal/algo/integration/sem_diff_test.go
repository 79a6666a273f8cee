package integration

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"graphz/internal/algo/graphzalgo"
	"graphz/internal/checkpoint"
	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/storage"
)

// The differential property behind the semi-external case (a fitting
// budget: one partition, states pinned, every send inline): residency is
// invisible to the algorithm. Against the spilling multi-partition
// baseline — the same run under a budget that fits an eighth of the
// states — the converged fixpoints (CC, SSSP) must match bit-for-bit for
// every algorithm and adjacency codec; PageRank's
// fixed-iteration ranks agree approximately, exactly as they do between
// any two partition counts (a cross-partition message waits an iteration,
// an inline one does not). The raw and groupvarint codecs must stay
// indistinguishable on one partition, and a mid-run crash/resume cycle
// must reproduce the uninterrupted run.

// semRunOpts is a budget with room to pin every state: one partition.
func semRunOpts() core.Options {
	return core.Options{MemoryBudget: 64 << 20, DynamicMessages: true}
}

func checkSemShape(t *testing.T, label string, r core.Result) {
	t.Helper()
	if !r.SemiExternal {
		t.Fatalf("%s: run was not semi-external", label)
	}
	if r.MessagesBuffered != 0 || r.MessagesSpilled != 0 {
		t.Fatalf("%s: buffered %d spilled %d, want 0/0", label, r.MessagesBuffered, r.MessagesSpilled)
	}
}

func TestSemDifferential(t *testing.T) {
	algos := []struct {
		name  string
		exact bool // multi-partition states must match bit-for-bit
		run   func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error)
	}{
		{"cc", true, func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error) {
			res, labels, err := graphzalgo.ConnectedComponents(g, opts)
			return res, bits32(labels), err
		}},
		{"sssp", true, func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error) {
			res, dists, err := graphzalgo.SSSP(g, opts, 0)
			return res, bitsF32(dists), err
		}},
		// PageRank stops at a fixed iteration count, so the faster
		// propagation on one partition shifts the float sums the same
		// way fewer partitions always do: compare approximately.
		{"pagerank", false, func(g *dos.Graph, opts core.Options) (core.Result, []uint64, error) {
			res, ranks, err := graphzalgo.PageRank(g, opts, 20, 0.85)
			return res, bitsF32(ranks), err
		}},
	}
	codecs := []struct {
		name  string
		codec storage.Codec
	}{{"raw", storage.CodecRaw}, {"groupvarint", storage.CodecGroupVarint}}

	edges := symmetrize(gen.Zipf(3000, 16000, 0.9, 81))
	for _, a := range algos {
		// One fitting-budget outcome per codec, to cross-check raw vs groupvarint.
		semStates := map[string][]uint64{}
		semCounters := map[string]codecCounters{}
		for _, c := range codecs {
			name := a.name + "/" + c.name
			g := convertCodec(t, edges, c.codec)

			semRes, semSt, err := a.run(g, semRunOpts())
			if err != nil {
				t.Fatalf("%s sem: %v", name, err)
			}
			checkSemShape(t, name, semRes)
			semStates[c.name], semCounters[c.name] = semSt, countersOf(semRes)

			// Fixpoint identity vs the spilling multi-partition run.
			gMulti := convertCodec(t, edges, c.codec)
			multiRes, multiSt, err := a.run(gMulti, tightCodecOpts(gMulti, 8))
			if err != nil {
				t.Fatalf("%s multi-partition: %v", name, err)
			}
			if multiRes.Partitions < 2 {
				t.Fatalf("%s: baseline has %d partitions, want several", name, multiRes.Partitions)
			}
			if a.exact {
				if multiRes.MessagesSpilled == 0 {
					t.Errorf("%s: baseline never spilled — differential proves little", name)
				}
				sameBits(t, name+" sem-vs-multi-partition", semSt, multiSt)
			} else {
				for i := range multiSt {
					vm := float64(math.Float32frombits(uint32(multiSt[i])))
					vs := float64(math.Float32frombits(uint32(semSt[i])))
					if math.Abs(vm-vs) > 1e-3*(1+math.Abs(vm)) {
						t.Fatalf("%s: state[%d] = %v, multi-partition has %v", name, i, vs, vm)
					}
				}
			}
		}
		// The codec must stay invisible on one partition too.
		sameBits(t, a.name+" sem raw-vs-groupvarint", semStates["groupvarint"], semStates["raw"])
		if semCounters["groupvarint"] != semCounters["raw"] {
			t.Fatalf("%s: sem groupvarint counters %+v, raw %+v", a.name, semCounters["groupvarint"], semCounters["raw"])
		}
	}
}

// A one-partition checkpoint taken mid-run resumes to the same final state
// and cumulative counters as the uninterrupted run, on every v2 codec.
func TestSemCheckpointResumeDifferential(t *testing.T) {
	edges := symmetrize(gen.Zipf(2500, 14000, 0.9, 82))
	type outcome struct {
		res core.Result
		st  []uint64
	}
	results := map[string]outcome{}
	for _, c := range []struct {
		name  string
		codec storage.Codec
	}{{"raw", storage.CodecRaw}, {"groupvarint", storage.CodecGroupVarint}} {
		gRef := convertCodec(t, edges, c.codec)
		refRes, refLabels, err := graphzalgo.ConnectedComponents(gRef, semRunOpts())
		if err != nil {
			t.Fatal(err)
		}
		checkSemShape(t, c.name+" reference", refRes)
		if refRes.Iterations < 3 {
			t.Fatalf("CC converged in %d iterations; too few to test mid-run resume", refRes.Iterations)
		}

		dir := t.TempDir()
		g := convertCodec(t, edges, c.codec)
		opts := semRunOpts()
		opts.Checkpoint = core.CheckpointOptions{Dir: dir, Every: 1, Keep: 1 << 20}
		if _, _, err := graphzalgo.ConnectedComponents(g, opts); err != nil {
			t.Fatal(err)
		}
		st, err := checkpoint.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		iters, err := st.Iterations()
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range iters {
			if it > refRes.Iterations/2 {
				os.RemoveAll(filepath.Join(dir, fmt.Sprintf("ckpt-%010d", it)))
			}
		}
		ropts := semRunOpts()
		ropts.Checkpoint = core.CheckpointOptions{Dir: dir, Every: 1, Resume: true}
		res, labels, err := graphzalgo.ConnectedComponents(g, ropts)
		if err != nil {
			t.Fatalf("%s resume: %v", c.name, err)
		}
		checkSemShape(t, c.name+" resumed", res)
		sameBits(t, c.name+" resumed-vs-uninterrupted", bits32(labels), bits32(refLabels))
		if countersOf(res) != countersOf(refRes) {
			t.Fatalf("%s: resumed counters %+v, uninterrupted %+v", c.name, countersOf(res), countersOf(refRes))
		}
		results[c.name] = outcome{res: res, st: bits32(labels)}
	}
	gv, raw := results["groupvarint"], results["raw"]
	sameBits(t, "sem raw-vs-groupvarint after resume", gv.st, raw.st)
	if countersOf(gv.res) != countersOf(raw.res) {
		t.Fatalf("resume counters differ: groupvarint %+v, raw %+v", countersOf(gv.res), countersOf(raw.res))
	}
}
