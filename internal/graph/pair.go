package graph

// Pair is a two-field value with a ready-made codec. Most vertex states
// in message-driven algorithms are a (current, pending) pair — a rank
// and its vote accumulator, a level and its best proposal — and the
// framework ships codecs for its two common instantiations, so user
// programs do not hand-roll them.
type Pair[A, B any] struct {
	A A
	B B
}

// U32Pair and F32Pair are the common instantiations.
type (
	// U32Pair is a pair of uint32 values.
	U32Pair = Pair[uint32, uint32]
	// F32Pair is a pair of float32 values.
	F32Pair = Pair[float32, float32]
)

// U32PairCodec encodes U32Pair in 8 bytes.
var U32PairCodec u32PairCodec

// F32PairCodec encodes F32Pair in 8 bytes.
var F32PairCodec f32PairCodec

// u32PairCodec encodes A, then B, each as a Uint32Codec. It has the bulk
// form (BulkCodec) as a plain loop over Encode and Decode, into which the
// compiler inlines both field codecs (ci/inlinecheck.sh).
type u32PairCodec struct{}

func (u32PairCodec) Size() int { return 8 }

func (u32PairCodec) Encode(buf []byte, v U32Pair) {
	Uint32Codec{}.Encode(buf, v.A)
	Uint32Codec{}.Encode(buf[4:], v.B)
}

func (u32PairCodec) Decode(buf []byte) U32Pair {
	return U32Pair{A: Uint32Codec{}.Decode(buf), B: Uint32Codec{}.Decode(buf[4:])}
}

func (c u32PairCodec) EncodeAll(buf []byte, vs []U32Pair) {
	for i, v := range vs {
		c.Encode(buf[8*i:], v)
	}
}

func (c u32PairCodec) DecodeAll(vs []U32Pair, buf []byte) {
	for i := range vs {
		vs[i] = c.Decode(buf[8*i:])
	}
}

// f32PairCodec is u32PairCodec for F32Pair.
type f32PairCodec struct{}

func (f32PairCodec) Size() int { return 8 }

func (f32PairCodec) Encode(buf []byte, v F32Pair) {
	Float32Codec{}.Encode(buf, v.A)
	Float32Codec{}.Encode(buf[4:], v.B)
}

func (f32PairCodec) Decode(buf []byte) F32Pair {
	return F32Pair{A: Float32Codec{}.Decode(buf), B: Float32Codec{}.Decode(buf[4:])}
}

func (c f32PairCodec) EncodeAll(buf []byte, vs []F32Pair) {
	for i, v := range vs {
		c.Encode(buf[8*i:], v)
	}
}

func (c f32PairCodec) DecodeAll(vs []F32Pair, buf []byte) {
	for i := range vs {
		vs[i] = c.Decode(buf[8*i:])
	}
}
