package xsalgo

import (
	"encoding/binary"

	"graphz/internal/graph"
	"graphz/internal/xstream"
)

// Random walk in the edge-centric model. Scatter has no edge ordinal, so
// the vertex state carries a cursor that counts this iteration's scatter
// calls for the source — partition edge files stream in a fixed order,
// making the cursor a stable per-edge ordinal. Walkers split evenly with
// a hash-rotated remainder; dead-end walkers rest in place. The BSP
// barrier means walkers are conserved exactly every iteration.

type rwVal struct {
	Walkers  uint32
	Incoming uint32
	Visits   uint32
	Cursor   uint32
	Deg      uint32
}

type rwValCodec struct{}

func (rwValCodec) Size() int { return 20 }

func (rwValCodec) Encode(b []byte, v rwVal) {
	binary.LittleEndian.PutUint32(b, v.Walkers)
	binary.LittleEndian.PutUint32(b[4:], v.Incoming)
	binary.LittleEndian.PutUint32(b[8:], v.Visits)
	binary.LittleEndian.PutUint32(b[12:], v.Cursor)
	binary.LittleEndian.PutUint32(b[16:], v.Deg)
}

func (rwValCodec) Decode(b []byte) rwVal {
	return rwVal{
		Walkers:  binary.LittleEndian.Uint32(b),
		Incoming: binary.LittleEndian.Uint32(b[4:]),
		Visits:   binary.LittleEndian.Uint32(b[8:]),
		Cursor:   binary.LittleEndian.Uint32(b[12:]),
		Deg:      binary.LittleEndian.Uint32(b[16:]),
	}
}

func rwHash(id graph.VertexID, iter int) uint64 {
	x := uint64(id)<<32 ^ uint64(uint32(iter))
	x = (x ^ (x >> 33)) * 0xff51afd7ed558ccd
	x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

type rwProgram struct {
	perVertex uint32
}

func (p rwProgram) Init(id graph.VertexID, outDeg uint32) rwVal {
	return rwVal{Walkers: p.perVertex, Deg: outDeg}
}

func (rwProgram) Scatter(iter int, src graph.VertexID, v *rwVal, dst graph.VertexID) (uint32, bool) {
	ordinal := v.Cursor
	v.Cursor++
	if v.Walkers == 0 {
		return 0, false
	}
	base := v.Walkers / v.Deg
	extra := v.Walkers % v.Deg
	start := uint32(rwHash(src, iter) % uint64(v.Deg))
	n := base
	if d := (ordinal + v.Deg - start) % v.Deg; d < extra {
		n++
	}
	if n == 0 {
		return 0, false
	}
	return n, true
}

func (rwProgram) Gather(iter int, dst graph.VertexID, v *rwVal, u uint32) {
	v.Incoming += u
}

func (rwProgram) PostGather(iter int, id graph.VertexID, v *rwVal) bool {
	if v.Walkers > 0 {
		v.Visits += v.Walkers
	}
	next := v.Incoming
	if v.Deg == 0 {
		// Dead end: resident walkers rest.
		next += v.Walkers
	}
	v.Walkers = next
	v.Incoming = 0
	v.Cursor = 0
	return v.Walkers > 0
}

// RandomWalk runs the given number of steps with walkersPerVertex walkers
// starting everywhere, returning per-vertex visit counts.
func RandomWalk(pt *xstream.Partitioned, opts xstream.Options, iterations int, walkersPerVertex uint32) (xstream.Result, []uint32, error) {
	opts.MaxIterations = iterations
	res, vals, err := run[rwVal, uint32](pt, rwProgram{perVertex: walkersPerVertex}, rwValCodec{}, graph.Uint32Codec{}, opts)
	if err != nil {
		return xstream.Result{}, nil, err
	}
	visits := make([]uint32, len(vals))
	for i, v := range vals {
		visits[i] = v.Visits
	}
	return res, visits, nil
}
