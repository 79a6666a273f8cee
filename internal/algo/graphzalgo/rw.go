package graphzalgo

import (
	"encoding/binary"

	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/graph"
)

// Random walk: every vertex launches a fixed number of walkers; each
// iteration, a vertex forwards its resident walkers to out-neighbors
// (spread evenly, with the remainder rotated by a deterministic hash so
// runs are reproducible), while dead-end walkers rest in place. The
// per-vertex visit counts approximate stationary popularity. Walkers are
// aggregated into per-neighbor counts, so messages carry multiplicity
// rather than one record per walker.

// rwVal tracks the walkers resident this iteration, the walkers arriving
// for the next one, and the total visits.
type rwVal struct {
	Walkers  uint32
	Incoming uint32
	Visits   uint32
}

type rwValCodec struct{}

func (rwValCodec) Size() int { return 12 }

func (rwValCodec) Encode(b []byte, v rwVal) {
	binary.LittleEndian.PutUint32(b, v.Walkers)
	binary.LittleEndian.PutUint32(b[4:], v.Incoming)
	binary.LittleEndian.PutUint32(b[8:], v.Visits)
}

func (rwValCodec) Decode(b []byte) rwVal {
	return rwVal{
		Walkers:  binary.LittleEndian.Uint32(b),
		Incoming: binary.LittleEndian.Uint32(b[4:]),
		Visits:   binary.LittleEndian.Uint32(b[8:]),
	}
}

// rwHash mixes (vertex, iteration) into a rotation offset.
func rwHash(id graph.VertexID, iter int) uint64 {
	x := uint64(id)<<32 ^ uint64(uint32(iter))
	x = (x ^ (x >> 33)) * 0xff51afd7ed558ccd
	x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

type rwProgram struct {
	walkersPerVertex uint32
}

func (p rwProgram) Init(id graph.VertexID, deg uint32) rwVal {
	return rwVal{Walkers: p.walkersPerVertex}
}

func (p rwProgram) Update(ctx *core.Context[uint32], id graph.VertexID, v *rwVal, adj []graph.VertexID) {
	if ctx.Iteration() > 0 {
		v.Walkers = v.Incoming
		v.Incoming = 0
	}
	if v.Walkers == 0 {
		return
	}
	v.Visits += v.Walkers
	ndeg := uint32(len(adj))
	if ndeg == 0 {
		// Dead end: walkers rest in place until the run ends, and each
		// iteration's visit is a change the run must not stop on.
		v.Incoming += v.Walkers
		ctx.MarkActive()
		return
	}
	base := v.Walkers / ndeg
	extra := v.Walkers % ndeg
	start := uint32(rwHash(id, ctx.Iteration()) % uint64(ndeg))
	for i, a := range adj {
		n := base
		// The `extra` neighbors starting at the rotated offset
		// receive one additional walker.
		if d := (uint32(i) + ndeg - start) % ndeg; d < extra {
			n++
		}
		if n > 0 {
			ctx.Send(a, n)
		}
	}
}

func (rwProgram) Apply(v *rwVal, m uint32) bool {
	v.Incoming += m
	return true
}

// RandomWalk runs the given number of steps with walkersPerVertex walkers
// starting at every vertex, returning per-vertex visit counts.
func RandomWalk(g *dos.Graph, opts core.Options, iterations int, walkersPerVertex uint32) (core.Result, []uint32, error) {
	return RandomWalkLayout(core.DOSLayout(g), opts, iterations, walkersPerVertex)
}

// RandomWalkLayout is RandomWalk over an explicit layout (for the
// ablations).
func RandomWalkLayout(l core.Layout, opts core.Options, iterations int, walkersPerVertex uint32) (core.Result, []uint32, error) {
	opts.MaxIterations = iterations
	res, vals, err := runLayout[rwVal, uint32](l, rwProgram{walkersPerVertex: walkersPerVertex}, rwValCodec{}, graph.Uint32Codec{}, opts)
	if err != nil {
		return core.Result{}, nil, err
	}
	visits := make([]uint32, len(vals))
	for i, v := range vals {
		visits[i] = v.Visits
	}
	return res, visits, nil
}
