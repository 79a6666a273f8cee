// Command graphz-gen generates synthetic graphs in the raw binary edge
// format (8 bytes per edge: little-endian u32 source, u32 destination)
// that graphz-convert and graphz-run consume.
//
// Usage:
//
//	graphz-gen -kind rmat -scale 16 -edges 1000000 -seed 7 -out graph.bin
//	graphz-gen -kind zipf -vertices 50000 -edges 500000 -s 0.9 -out graph.bin
//	graphz-gen -kind grid -rows 300 -cols 300 -out roads.bin
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"graphz/internal/gen"
	"graphz/internal/graph"
)

func main() {
	var (
		kind     = flag.String("kind", "rmat", "generator: rmat, zipf, er, grid")
		scale    = flag.Int("scale", 16, "rmat: log2 of the vertex ID space")
		vertices = flag.Int("vertices", 10000, "zipf/er: vertex count")
		edges    = flag.Int("edges", 100000, "rmat/zipf/er: edge count")
		zipfS    = flag.Float64("s", 0.9, "zipf: skew exponent")
		rows     = flag.Int("rows", 100, "grid: rows")
		cols     = flag.Int("cols", 100, "grid: columns")
		seed     = flag.Uint64("seed", 42, "generator seed")
		out      = flag.String("out", "", "output file (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "graphz-gen: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	es, err := gen.Generate(gen.Spec{Kind: *kind, Scale: *scale, Vertices: *vertices, Edges: *edges,
		Skew: *zipfS, Rows: *rows, Cols: *cols, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphz-gen:", err)
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphz-gen:", err)
		os.Exit(1)
	}
	defer f.Close()
	buf := make([]byte, graph.EdgeBytes)
	for _, e := range es {
		binary.LittleEndian.PutUint32(buf[0:4], uint32(e.Src))
		binary.LittleEndian.PutUint32(buf[4:8], uint32(e.Dst))
		if _, err := f.Write(buf); err != nil {
			fmt.Fprintln(os.Stderr, "graphz-gen:", err)
			os.Exit(1)
		}
	}
	st := gen.Summarize(es)
	fmt.Printf("wrote %s: %d edges, %d vertices (max ID %d), %d unique degrees\n",
		*out, st.NumEdges, st.NumVertices, st.MaxID, st.UniqueDegrees)
}
