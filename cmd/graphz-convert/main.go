// Command graphz-convert converts a raw binary edge list into
// degree-ordered storage (the paper's Section III format) and reports the
// index statistics. The conversion runs through the simulated device so
// its IO cost is measured; the resulting DOS files are then exported next
// to the input as <prefix>.edges, <prefix>.meta, <prefix>.new2old, and
// <prefix>.old2new.
//
// Usage:
//
//	graphz-convert -in graph.bin -prefix graph.dos [-device ssd] [-budget 8388608] [-codec raw|groupvarint]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"graphz/internal/dos"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

func main() {
	var (
		in     = flag.String("in", "", "input raw edge file (required)")
		prefix = flag.String("prefix", "", "output prefix (default: input path without extension)")
		device = flag.String("device", "ssd", "simulated device for cost accounting: hdd or ssd")
		budget = flag.Int64("budget", 8<<20, "conversion memory budget in bytes")
		codec  = flag.String("codec", "", "adjacency block codec for the DOS v2 format "+
			"("+strings.Join(storage.CodecNames(), ", ")+"); empty writes the v1 format")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "graphz-convert: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if *prefix == "" {
		ext := filepath.Ext(*in)
		*prefix = (*in)[:len(*in)-len(ext)] + ".dos"
	}
	kind, err := storage.ParseKind(*device)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphz-convert:", err)
		os.Exit(2)
	}
	var blockCodec storage.Codec
	if *codec != "" {
		if blockCodec, err = storage.CodecByName(*codec); err != nil {
			fatal(err)
		}
	}

	raw, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	clock := sim.NewClock()
	dev := storage.NewDevice(kind, storage.Options{Clock: clock})
	if err := storage.WriteAll(dev, "raw", raw); err != nil {
		fatal(err)
	}
	dev.ResetStats()

	g, err := dos.Convert(dos.ConvertConfig{Dev: dev, Clock: clock, MemoryBudget: *budget, Codec: blockCodec}, "raw", "g")
	if err != nil {
		fatal(err)
	}
	if err := dos.Verify(g); err != nil {
		fatal(fmt.Errorf("conversion self-check failed: %w", err))
	}

	if err := dos.Export(g, *prefix); err != nil {
		fatal(err)
	}

	fmt.Printf("converted %s -> %s.{edges,meta,new2old,old2new}\n", *in, *prefix)
	fmt.Printf("  vertices:        %d (max original ID %d)\n", g.NumVertices, g.MaxOldID)
	fmt.Printf("  edges:           %d\n", g.NumEdges)
	fmt.Printf("  unique degrees:  %d\n", g.UniqueDegrees())
	if g.Version() == 2 {
		edgeBytes, err := dev.Size(g.EdgesFile())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  format:          v2, %s codec, %d bytes of edges (raw would be %d, %.2fx), %d-byte block table\n",
			g.Codec().Name(), edgeBytes, g.NumEdges*dos.EntryBytes,
			safeRatio(g.NumEdges*dos.EntryBytes, edgeBytes), g.BlockTableBytes())
	}
	fmt.Printf("  vertex index:    %d bytes (CSR would need %d bytes, %.0fx more)\n",
		g.IndexBytes(), int64(g.MaxOldID+1)*8,
		float64(int64(g.MaxOldID+1)*8)/float64(g.IndexBytes()))
	fmt.Printf("  modeled %s time: %v (compute %v, IO %v)\n",
		kind, clock.Total(), clock.TotalCompute(), clock.TotalIO())
	fmt.Printf("  device traffic:  %v\n", dev.Stats())
}

func safeRatio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphz-convert:", err)
	os.Exit(1)
}
