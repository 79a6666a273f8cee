package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"graphz/internal/graph"
	"graphz/internal/graphchi"
	"graphz/internal/storage"
)

// This file implements the paper's Section IV-E expressiveness
// construction (Algorithms 5 and 6): any GraphChi-style program — even
// one whose gather is neither commutative nor associative — runs
// unchanged on the GraphZ engine. Each message carries an Edge (the
// neighbor plus an edge value); apply_message only appends it to the
// destination's in-edge list, and update() sees the accumulated in-edges
// exactly as GraphChi's update would. The construction deliberately
// forgoes dynamic messages' space savings; it exists to prove no
// expressiveness is lost.

// EmulatedVertex is the construction's VertexDataType (Algorithm 5): the
// real vertex value, the in-edge list accumulated by apply_message, and
// the persistent out-edge values (GraphChi stores those on disk edges;
// here they are part of the vertex, as Algorithm 5's "edges are part of
// the vertex" describes).
type EmulatedVertex[V, E any] struct {
	Value   V
	Edges   []graphchi.EdgeRef[E] // in-edges; Val points into vals
	vals    []E
	outVals []E // out-edge values, persisted across iterations
	outInit bool
}

// emulatedMsg is the construction's MessageDataType: one edge.
type emulatedMsg[E any] struct {
	Neighbor graph.VertexID
	Val      E
}

// emulatedProgram adapts a graphchi.Program to the GraphZ model.
type emulatedProgram[V, E any] struct {
	inner graphchi.Program[V, E]
	inDeg []uint32 // needed by the inner Init; gathered up front
}

func (p *emulatedProgram[V, E]) Init(id graph.VertexID, deg uint32) EmulatedVertex[V, E] {
	var inDeg uint32
	if int(id) < len(p.inDeg) {
		inDeg = p.inDeg[id]
	}
	return EmulatedVertex[V, E]{Value: p.inner.Init(id, inDeg, deg)}
}

func (p *emulatedProgram[V, E]) Update(ctx *Context[emulatedMsg[E]], id graph.VertexID, v *EmulatedVertex[V, E], adj []graph.VertexID) {
	// The inner update consumes the gathered in-edges and may rewrite
	// the persistent out-edge values.
	if !v.outInit {
		v.outVals = make([]E, len(adj))
		for i, a := range adj {
			v.outVals[i] = p.inner.InitEdge(id, a)
		}
		v.outInit = true
	}
	out := make([]graphchi.EdgeRef[E], len(adj))
	for i, a := range adj {
		out[i] = graphchi.EdgeRef[E]{Neighbor: a, Val: &v.outVals[i]}
	}
	active := false
	inner := graphchi.NewContext(ctx.Iteration(), &active)
	p.inner.Update(inner, id, &v.Value, v.Edges, out)
	if active {
		ctx.MarkActive()
	}
	// Clear the consumed in-edges BEFORE sending: a self-loop's
	// message applies to this very vertex during the send loop and
	// must survive until the next update. Then ship the out-edge
	// values (each destination clears its gathered copy every update,
	// so every round re-sends), exactly as Algorithm 6 does.
	v.Edges = v.Edges[:0]
	v.vals = v.vals[:0]
	for i, a := range adj {
		ctx.Send(a, emulatedMsg[E]{Neighbor: id, Val: v.outVals[i]})
	}
}

// Apply is neither commutative nor idempotent: each message contributes
// one edge slot, and the slot order is the arrival order — which the
// engine's arrival-order message store preserves. Every message changes
// its vertex, so it reports true.
func (p *emulatedProgram[V, E]) Apply(v *EmulatedVertex[V, E], m emulatedMsg[E]) bool {
	// Algorithm 6's apply_message: append the edge. The value slice is
	// stable per apply round because Edges is rebuilt alongside it.
	v.vals = append(v.vals, m.Val)
	v.Edges = append(v.Edges, graphchi.EdgeRef[E]{Neighbor: m.Neighbor})
	for i := range v.Edges {
		v.Edges[i].Val = &v.vals[i]
	}
	return true
}

// emulatedCodec persists EmulatedVertex values. The edge list is
// variable-length in principle; this codec bounds it by the vertex's
// in-degree, encoding count + entries into a fixed frame sized for the
// graph's maximum in-degree. That makes the construction storage-hungry
// — which is the paper's point: dynamic messages exist to avoid exactly
// this intermediate state.
type emulatedCodec[V, E any] struct {
	vcodec    graph.Codec[V]
	ecodec    graph.Codec[E]
	maxInDeg  int
	maxOutDeg int
}

func (c emulatedCodec[V, E]) entryBytes() int { return 4 + c.ecodec.Size() }

func (c emulatedCodec[V, E]) Size() int {
	return c.vcodec.Size() + 4 + c.maxInDeg*c.entryBytes() +
		8 + c.maxOutDeg*c.ecodec.Size()
}

func (c emulatedCodec[V, E]) Encode(buf []byte, v EmulatedVertex[V, E]) {
	for i := range buf[:c.Size()] {
		buf[i] = 0
	}
	c.vcodec.Encode(buf, v.Value)
	o := c.vcodec.Size()
	binary.LittleEndian.PutUint32(buf[o:], uint32(len(v.Edges)))
	o += 4
	for i, e := range v.Edges {
		binary.LittleEndian.PutUint32(buf[o:], uint32(e.Neighbor))
		c.ecodec.Encode(buf[o+4:], v.vals[i])
		o += c.entryBytes()
	}
	o = c.vcodec.Size() + 4 + c.maxInDeg*c.entryBytes()
	binary.LittleEndian.PutUint32(buf[o:], uint32(len(v.outVals)))
	var flag uint32
	if v.outInit {
		flag = 1
	}
	binary.LittleEndian.PutUint32(buf[o+4:], flag)
	o += 8
	for _, ov := range v.outVals {
		c.ecodec.Encode(buf[o:], ov)
		o += c.ecodec.Size()
	}
}

func (c emulatedCodec[V, E]) Decode(buf []byte) EmulatedVertex[V, E] {
	var v EmulatedVertex[V, E]
	v.Value = c.vcodec.Decode(buf)
	o := c.vcodec.Size()
	n := int(binary.LittleEndian.Uint32(buf[o:]))
	o += 4
	v.vals = make([]E, n)
	v.Edges = make([]graphchi.EdgeRef[E], n)
	for i := 0; i < n; i++ {
		v.Edges[i].Neighbor = graph.VertexID(binary.LittleEndian.Uint32(buf[o:]))
		v.vals[i] = c.ecodec.Decode(buf[o+4:])
		o += c.entryBytes()
	}
	for i := range v.Edges {
		v.Edges[i].Val = &v.vals[i]
	}
	o = c.vcodec.Size() + 4 + c.maxInDeg*c.entryBytes()
	nOut := int(binary.LittleEndian.Uint32(buf[o:]))
	v.outInit = binary.LittleEndian.Uint32(buf[o+4:]) == 1
	o += 8
	v.outVals = make([]E, nOut)
	for i := 0; i < nOut; i++ {
		v.outVals[i] = c.ecodec.Decode(buf[o:])
		o += c.ecodec.Size()
	}
	return v
}

// emulatedMsgCodec persists one emulated message.
type emulatedMsgCodec[E any] struct {
	ecodec graph.Codec[E]
}

func (c emulatedMsgCodec[E]) Size() int { return 4 + c.ecodec.Size() }

func (c emulatedMsgCodec[E]) Encode(buf []byte, m emulatedMsg[E]) {
	binary.LittleEndian.PutUint32(buf, uint32(m.Neighbor))
	c.ecodec.Encode(buf[4:], m.Val)
}

func (c emulatedMsgCodec[E]) Decode(buf []byte) emulatedMsg[E] {
	return emulatedMsg[E]{
		Neighbor: graph.VertexID(binary.LittleEndian.Uint32(buf)),
		Val:      c.ecodec.Decode(buf[4:]),
	}
}

// EmulateGraphChi runs a GraphChi-style program on the GraphZ engine via
// the Section IV-E construction and returns the engine result plus the
// final vertex values (by layout ID). inDegrees must give each vertex's
// in-degree in the layout's ID space (GraphChi's Init receives it). The
// construction re-sends every out-edge value every round, message or none,
// so it does not declare FrontierSafe: with opts.SelectiveScheduling New's
// ErrInvalidOptions comes back.
func EmulateGraphChi[V, E any](layout Layout, prog graphchi.Program[V, E],
	vcodec graph.Codec[V], ecodec graph.Codec[E], inDegrees []uint32, opts Options) (Result, []V, error) {

	maxIn := 0
	for _, d := range inDegrees {
		if int(d) > maxIn {
			maxIn = int(d)
		}
	}
	if err := layout.LoadIndex(); err != nil {
		return Result{}, nil, err
	}
	maxOut := 0
	for v := 0; v < layout.NumVertices(); v++ {
		if d := int(layout.DegreeOf(graph.VertexID(v))); d > maxOut {
			maxOut = d
		}
	}
	p := &emulatedProgram[V, E]{inner: prog, inDeg: inDegrees}
	codec := emulatedCodec[V, E]{vcodec: vcodec, ecodec: ecodec, maxInDeg: maxIn, maxOutDeg: maxOut}
	eng, err := New[EmulatedVertex[V, E], emulatedMsg[E]](layout, p, codec,
		emulatedMsgCodec[E]{ecodec: ecodec}, opts)
	if err != nil {
		return Result{}, nil, err
	}
	eng.convergeOnInactivity = true
	res, err := eng.Run()
	if err != nil {
		return Result{}, nil, err
	}
	wrapped, err := eng.Values()
	if err != nil {
		return Result{}, nil, err
	}
	eng.Cleanup()
	vals := make([]V, len(wrapped))
	for i, w := range wrapped {
		vals[i] = w.Value
	}
	return res, vals, nil
}

// InDegrees computes per-vertex in-degrees for a layout by streaming its
// adjacency file once — the setup pass the emulation needs. The layout
// need not have been verified: an entry naming a vertex the layout does
// not have fails with an error matching storage.ErrCorruptBlock.
func InDegrees(l Layout) ([]uint32, error) {
	n := l.NumVertices()
	in := make([]uint32, n)
	if n == 0 {
		return in, nil
	}
	if err := l.LoadIndex(); err != nil {
		return nil, err
	}
	stream, err := openEntryStream(l.Device(), l.Adj(), l.EdgesFile(), []entryRange{{start: 0, end: l.NumEdges()}}, nil)
	if err != nil {
		return nil, err
	}
	defer stream.stop()
	for off := int64(0); off < l.NumEdges(); {
		w, err := stream.window(off, 1)
		if err != nil {
			return nil, err
		}
		for i, dst := range w {
			if int(dst) >= n {
				return nil, fmt.Errorf("core: adjacency entry %d of %q names vertex %d, layout has %d: %w",
					off+int64(i), l.EdgesFile(), dst, n, storage.ErrCorruptBlock)
			}
			in[dst]++
		}
		off += int64(len(w))
	}
	return in, nil
}

// sortEdgeRefs orders an edge-ref list by neighbor; useful for tests that
// compare gathered in-edge sets.
func sortEdgeRefs[E any](refs []graphchi.EdgeRef[E]) {
	sort.Slice(refs, func(i, j int) bool { return refs[i].Neighbor < refs[j].Neighbor })
}
