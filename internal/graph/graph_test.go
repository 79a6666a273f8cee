package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEdgeRoundTrip(t *testing.T) {
	f := func(src, dst uint32) bool {
		var buf [EdgeBytes]byte
		e := Edge{Src: VertexID(src), Dst: VertexID(dst)}
		PutEdge(buf[:], e)
		return GetEdge(buf[:]) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint32CodecRoundTrip(t *testing.T) {
	var c Uint32Codec
	if c.Size() != 4 {
		t.Fatalf("Size() = %d, want 4", c.Size())
	}
	f := func(v uint32) bool {
		buf := make([]byte, c.Size())
		c.Encode(buf, v)
		return c.Decode(buf) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat32CodecRoundTrip(t *testing.T) {
	var c Float32Codec
	f := func(v float32) bool {
		buf := make([]byte, c.Size())
		c.Encode(buf, v)
		got := c.Decode(buf)
		if math.IsNaN(float64(v)) {
			return math.IsNaN(float64(got))
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64CodecRoundTrip(t *testing.T) {
	var c Float64Codec
	f := func(v float64) bool {
		buf := make([]byte, c.Size())
		c.Encode(buf, v)
		got := c.Decode(buf)
		if math.IsNaN(v) {
			return math.IsNaN(got)
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVertexIDCodecRoundTrip(t *testing.T) {
	var c VertexIDCodec
	buf := make([]byte, c.Size())
	for _, v := range []VertexID{0, 1, 42, NoVertex} {
		c.Encode(buf, v)
		if got := c.Decode(buf); got != v {
			t.Errorf("round trip of %d = %d", v, got)
		}
	}
}

func TestEdgeWeightProperties(t *testing.T) {
	f := func(u, v uint32) bool {
		w := EdgeWeight(VertexID(u), VertexID(v))
		return w > 0 && w <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Deterministic.
	if EdgeWeight(3, 7) != EdgeWeight(3, 7) {
		t.Error("EdgeWeight is not deterministic")
	}
	// Direction-sensitive for at least one pair (it is a hash of the
	// ordered pair).
	if EdgeWeight(3, 7) == EdgeWeight(7, 3) && EdgeWeight(1, 2) == EdgeWeight(2, 1) {
		t.Error("EdgeWeight appears to ignore edge direction")
	}
}

func TestEdgeCouplingRange(t *testing.T) {
	f := func(u, v uint32) bool {
		c := EdgeCoupling(VertexID(u), VertexID(v))
		return c >= 0.05 && c <= 0.95
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegrees(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 0}}
	deg, err := Degrees(edges, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{2, 1, 0, 1}
	for i, d := range want {
		if deg[i] != d {
			t.Errorf("deg[%d] = %d, want %d", i, deg[i], d)
		}
	}
}

func TestDegreesOutOfRange(t *testing.T) {
	if _, err := Degrees([]Edge{{5, 0}}, 3); err == nil {
		t.Error("expected error for out-of-range source")
	}
	if _, err := Degrees([]Edge{{0, 5}}, 3); err == nil {
		t.Error("expected error for out-of-range destination")
	}
}

func TestMaxID(t *testing.T) {
	if got := MaxID(nil); got != 0 {
		t.Errorf("MaxID(nil) = %d, want 0", got)
	}
	if got := MaxID([]Edge{{1, 9}, {4, 2}}); got != 9 {
		t.Errorf("MaxID = %d, want 9", got)
	}
}

func TestUniqueOutDegrees(t *testing.T) {
	// Degrees: 2, 1, 0, 1 -> unique {0, 1, 2} = 3.
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 0}}
	n, err := UniqueOutDegrees(edges, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("UniqueOutDegrees = %d, want 3", n)
	}
}

// TestClaim1UniqueDegreeBound checks the paper's Claim 1 on random graphs:
// |UD| <= 3*sqrt(|E|).
func TestClaim1UniqueDegreeBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := newSplitMix(uint64(seed))
		n := 50 + int(rng.next()%200)
		m := 1 + int(rng.next()%2000)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{
				Src: VertexID(rng.next() % uint64(n)),
				Dst: VertexID(rng.next() % uint64(n)),
			}
		}
		ud, err := UniqueOutDegrees(edges, n)
		if err != nil {
			return false
		}
		return float64(ud) <= 3*math.Sqrt(float64(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestPairCodecsBulk: the two pair codecs lay a pair out as A then B, each
// in its field's codec, and their bulk form is their per-value form in a
// loop, byte for byte; Bulk finds it, and gives a codec without one the
// per-value loop.
func TestPairCodecsBulk(t *testing.T) {
	u := func(vs []U32Pair) bool {
		return checkBulk(U32PairCodec, vs, func(b []byte, v U32Pair) bool {
			return Uint32Codec{}.Decode(b) == v.A && Uint32Codec{}.Decode(b[4:]) == v.B
		})
	}
	f := func(vs []F32Pair) bool {
		return checkBulk(F32PairCodec, vs, func(b []byte, v F32Pair) bool {
			return math.Float32bits(Float32Codec{}.Decode(b)) == math.Float32bits(v.A) &&
				math.Float32bits(Float32Codec{}.Decode(b[4:])) == math.Float32bits(v.B)
		})
	}
	for _, prop := range []any{u, f} {
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	}
	if _, ok := Bulk[uint32](Uint32Codec{}).(perValue[uint32]); !ok {
		t.Error("Bulk of a codec without the bulk form is not the per-value loop")
	}
}

func checkBulk[T comparable](c Codec[T], vs []T, laidOut func([]byte, T) bool) bool {
	bulk, ok := Bulk(c).(interface{ Codec[T] })
	if !ok || bulk != c {
		return false
	}
	all, one := make([]byte, len(vs)*c.Size()), make([]byte, c.Size())
	Bulk(c).EncodeAll(all, vs)
	back := make([]T, len(vs))
	Bulk(c).DecodeAll(back, all)
	for i, v := range vs {
		c.Encode(one, v)
		b := all[i*c.Size():]
		if string(b[:c.Size()]) != string(one) || !laidOut(b, v) || c.Decode(b) != back[i] {
			return false
		}
	}
	return true
}
