package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"graphz/internal/algo/plain"
	"graphz/internal/bench"
	"graphz/internal/dos"
	"graphz/internal/extsort"
	"graphz/internal/graph"
	"graphz/internal/storage"
)

// probeLayers is the traced run's single-layer measurements: each drives
// one layer's public API over the workload's own files, outside the
// end-to-end numbers. It returns the bare sequential read bandwidth
// (MB/s), the base of core.vs_seqread_ratio.
func probeLayers(sp *spec, p *prepared, tr *tracer, res *results) (float64, error) {
	op := tr.newOp()
	root := tr.start("bench.layer_probes", -1, op)
	defer tr.end(root)
	timed := func(name string, f func() error) (float64, error) {
		id := tr.start(name, root, op)
		t0 := time.Now()
		err := f()
		d := seconds(time.Since(t0))
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return d, nil
	}

	// extsort: the raw edge file by source, at Convert's budget.
	var st extsort.Stats
	d, err := timed("extsort.sort", func() error {
		return extsort.Sort(extsort.Config{
			Dev: p.dev, RecordSize: graph.EdgeBytes, MemoryBudget: sp.budget, Stats: &st,
			Key: func(rec []byte) uint64 { return uint64(binary.LittleEndian.Uint32(rec)) },
		}, rawFile, "probe.sorted")
	})
	if err != nil {
		return 0, err
	}
	res.emit("extsort.sort_mrec_per_s", float64(st.RecordsIn)/1e6/d, 1)
	res.emit("extsort.runs", float64(st.Runs), 1)
	res.emit("extsort.merge_passes", float64(st.MergePasses), 1)
	if err := p.dev.Remove("probe.sorted"); err != nil {
		return 0, err
	}

	// storage: a bare Reader over the edges file is roofline row 1; the
	// same bytes through a bare Writer is its write twin.
	edgesBytes, err := p.dev.Size(p.g.EdgesFile())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, storage.DefaultBlockSize)
	d, err = timed("storage.seq_read", func() error {
		f, err := p.dev.Open(p.g.EdgesFile())
		if err != nil {
			return err
		}
		rd := storage.NewReader(f)
		for {
			if _, err := rd.Read(buf); errors.Is(err, io.EOF) {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return 0, err
	}
	seqReadMBs := float64(edgesBytes) / 1e6 / d
	res.emit("storage.seq_read_mb_per_s", seqReadMBs, 1)
	d, err = timed("storage.seq_write", func() error {
		f, err := p.dev.Create("probe.write")
		if err != nil {
			return err
		}
		w := storage.NewWriter(f)
		for left := edgesBytes; left > 0; left -= int64(len(buf)) {
			if _, err := w.Write(buf[:min(int64(len(buf)), left)]); err != nil {
				return err
			}
		}
		return w.Close()
	})
	if err != nil {
		return 0, err
	}
	res.emit("storage.seq_write_mb_per_s", float64(edgesBytes)/1e6/d, 1)
	if err := p.dev.Remove("probe.write"); err != nil {
		return 0, err
	}

	// codec: the workload's codec over the workload's own blocks, device
	// reads outside the timers.
	layout := p.g.BlockLayout()
	codec := layout.Codec
	f, err := p.dev.Open(p.g.EdgesFile())
	if err != nil {
		return 0, err
	}
	var decodeS, encodeS float64
	var entries []uint32
	var enc []byte
	id := tr.start("storage.codec", root, op)
	for b := int64(0); b < layout.NumBlocks(); b++ {
		lo, hi := layout.BlockRange(b)
		raw := make([]byte, hi-lo)
		if err := storage.NewRangeReader(f, lo, hi).ReadFull(raw); err != nil {
			return 0, fmt.Errorf("storage.codec: block %d: %w", b, err)
		}
		t0 := time.Now()
		entries, err = codec.DecodeBlock(entries[:0], raw)
		decodeS += seconds(time.Since(t0))
		if err != nil {
			return 0, fmt.Errorf("storage.codec: block %d: %w", b, err)
		}
		t0 = time.Now()
		enc = codec.EncodeBlock(enc[:0], entries)
		encodeS += seconds(time.Since(t0))
	}
	tr.end(id)
	res.emit("storage.decode_mentries_per_s", ratio(float64(p.g.NumEdges)/1e6, decodeS), 1)
	res.emit("storage.encode_mentries_per_s", ratio(float64(p.g.NumEdges)/1e6, encodeS), 1)
	res.emit("storage.compression_ratio", float64(p.g.NumEdges*dos.EntryBytes)/float64(edgesBytes), 1)

	// dos: one full pass of the entry reader the engine's sources wrap.
	d, err = timed("dos.entries_scan", func() error {
		rd, err := p.g.Entries(0, p.g.NumEdges)
		if err != nil {
			return err
		}
		for {
			if _, err := rd.Next(); errors.Is(err, io.EOF) {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return 0, err
	}
	res.emit("dos.entries_scan_mentries_per_s", float64(p.g.NumEdges)/1e6/d, 1)
	return seqReadMBs, nil
}

// yardstickMin is how long one yardstick sample runs at least: long
// enough that a sample's own jitter stays small beside the op's, short
// beside the op itself.
const yardstickMin = 100 * time.Millisecond

// yardstick times the in-memory algorithm (internal/algo/plain) for the
// workload's op on the relabelled input, now: whole runs until
// yardstickMin has passed, seconds per run. The timed phase takes one
// before and after every op, because the box's speed moves by tens of
// percent (at times 2-3x) for minutes on end and only a reference measured
// alongside moves with it (README, "End-to-end metrics").
func yardstick(sp *spec, p *prepared, source graph.VertexID) float64 {
	// As many runs at once as the workload has clients, so a box short
	// of processors starves the yardstick as it starves the op.
	lanes := 1
	if sp.serve != nil {
		lanes = sp.serve.clients
	}
	runs := make([]int, lanes)
	var wg sync.WaitGroup
	t0 := time.Now()
	for l := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runs[l] == 0 || time.Since(t0) < yardstickMin {
				if sp.algo == bench.BFS {
					plain.BFS(p.relAdj, source)
				} else {
					plain.PageRank(p.relAdj, sp.iters, prDamping)
				}
				runs[l]++
			}
		}()
	}
	wg.Wait()
	return seconds(time.Since(t0)) / float64(slices.Min(runs))
}
