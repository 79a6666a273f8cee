package storage

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, c Codec, entries []uint32) {
	t.Helper()
	enc := c.EncodeBlock(nil, entries)
	dec, err := c.DecodeBlock(nil, enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", c.Name(), err)
	}
	if len(dec) != len(entries) {
		t.Fatalf("%s: decoded %d entries, want %d", c.Name(), len(dec), len(entries))
	}
	for i := range dec {
		if dec[i] != entries[i] {
			t.Fatalf("%s: entry %d = %d, want %d", c.Name(), i, dec[i], entries[i])
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	cases := [][]uint32{
		nil,
		{0},
		{math.MaxUint32},
		{0, math.MaxUint32, 0, math.MaxUint32},
		{5, 5, 5, 5},
		{1, 2, 3, 1000, 1001, 7, 8, 9}, // ascending runs with a backward jump
	}
	for _, c := range codecs {
		for _, entries := range cases {
			roundTrip(t, c, entries)
		}
	}
}

func TestCodecRoundTripQuick(t *testing.T) {
	for _, c := range codecs {
		c := c
		check := func(entries []uint32) bool {
			enc := c.EncodeBlock(nil, entries)
			dec, err := c.DecodeBlock(nil, enc)
			if err != nil || len(dec) != len(entries) {
				return false
			}
			for i := range dec {
				if dec[i] != entries[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestCodecAppendsToDst(t *testing.T) {
	for _, c := range codecs {
		enc := c.EncodeBlock([]byte{0xab}, []uint32{1, 2, 3})
		if enc[0] != 0xab {
			t.Fatalf("%s: EncodeBlock clobbered the prefix", c.Name())
		}
		dec, err := c.DecodeBlock([]uint32{99}, enc[1:])
		if err != nil {
			t.Fatal(err)
		}
		if dec[0] != 99 || len(dec) != 4 {
			t.Fatalf("%s: DecodeBlock did not append: %v", c.Name(), dec)
		}
	}
}

func TestCodecGroupVarintCompressesAscendingRuns(t *testing.T) {
	// The v2 invariant: ascending destinations within each adjacency.
	entries := make([]uint32, 4096)
	for i := range entries {
		entries[i] = uint32(i / 4) // slowly ascending, many zero deltas
	}
	raw := CodecRaw.EncodeBlock(nil, entries)
	gv := CodecGroupVarint.EncodeBlock(nil, entries)
	if len(gv)*2 > len(raw) {
		t.Fatalf("groupvarint %d bytes vs raw %d: expected at least 2x on ascending data", len(gv), len(raw))
	}
}

func TestCodecDecodeCorrupt(t *testing.T) {
	cases := []struct {
		name  string
		codec Codec
		src   []byte
	}{
		{"raw trailing bytes", CodecRaw, []byte{1, 2, 3}},
		{"groupvarint truncated count", CodecGroupVarint, []byte{0x80}},
		{"groupvarint count overflows 64 bits", CodecGroupVarint, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"groupvarint count above input size", CodecGroupVarint, []byte{9, 0, 1}},
		{"groupvarint truncated control byte", CodecGroupVarint, []byte{1}},
		{"groupvarint truncated lane", CodecGroupVarint, CodecGroupVarint.EncodeBlock(nil, []uint32{100000})[:3]},
		{"groupvarint unused lanes coded", CodecGroupVarint, []byte{1, 0x04, 7}},
		{"groupvarint trailing bytes", CodecGroupVarint, append(CodecGroupVarint.EncodeBlock(nil, []uint32{7}), 0)},
	}
	for _, tc := range cases {
		_, err := tc.codec.DecodeBlock(nil, tc.src)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt input", tc.name)
			continue
		}
		if !errors.Is(err, ErrCorruptBlock) {
			t.Errorf("%s: error %v does not match ErrCorruptBlock", tc.name, err)
		}
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %T is not a *CodecError", tc.name, err)
		}
	}
}

func TestCodecDecodeArbitraryNeverPanics(t *testing.T) {
	for _, c := range codecs {
		c := c
		check := func(src []byte) bool {
			dec, err := c.DecodeBlock(nil, src)
			// Decoded count is bounded by the input size.
			return err != nil || len(dec) <= len(src)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestCodecRegistry(t *testing.T) {
	for _, c := range codecs {
		byID, err := CodecByID(uint32(c.ID()))
		if err != nil || byID.Name() != c.Name() {
			t.Errorf("CodecByID(%d) = %v, %v", c.ID(), byID, err)
		}
		byName, err := CodecByName(c.Name())
		if err != nil || byName.ID() != c.ID() {
			t.Errorf("CodecByName(%q) = %v, %v", c.Name(), byName, err)
		}
	}
	if got := CodecNames(); len(got) != 2 || got[0] != "raw" || got[1] != "groupvarint" {
		t.Errorf("CodecNames() = %v, want [raw groupvarint]", got)
	}
	// Unregistered IDs — the retired 1, one never assigned, and two that
	// only fit the meta file's 32-bit word — and unregistered names all
	// match ErrUnknownCodec; the retired ones say what to do about it.
	for _, id := range []uint32{1, 3, 0x100, 0xFFFFFFFF} {
		_, err := CodecByID(id)
		if !errors.Is(err, ErrUnknownCodec) {
			t.Errorf("CodecByID(%#x) = %v, want ErrUnknownCodec", id, err)
		}
		if retired := err != nil && strings.Contains(err.Error(), "retired"); retired != (id == 1) {
			t.Errorf("CodecByID(%#x) = %v: says retired = %v", id, err, retired)
		}
	}
	for _, name := range []string{"varint", "nope", ""} {
		_, err := CodecByName(name)
		if !errors.Is(err, ErrUnknownCodec) {
			t.Errorf("CodecByName(%q) = %v, want ErrUnknownCodec", name, err)
		}
		if retired := err != nil && strings.Contains(err.Error(), "retired"); retired != (name == "varint") {
			t.Errorf("CodecByName(%q) = %v: says retired = %v", name, err, retired)
		}
	}
}

// TestMaxEncodedLenBoundsEveryCodec: no registered codec exceeds the
// sizing hint on worst-case deltas (every zigzag delta needs four bytes),
// at every tail-group length, and group-varint is what sets it.
func TestMaxEncodedLenBoundsEveryCodec(t *testing.T) {
	for n := 0; n <= 9; n++ {
		entries := make([]uint32, n)
		for i := range entries {
			if i%2 == 0 {
				entries[i] = math.MaxUint32 / 2 // alternating ±2^31 steps
			}
		}
		for _, c := range codecs {
			if got := len(c.EncodeBlock(nil, entries)); got > MaxEncodedLen(n) {
				t.Errorf("%s: %d entries encode to %d bytes, MaxEncodedLen = %d", c.Name(), n, got, MaxEncodedLen(n))
			}
		}
	}
	// The count header reaches its five bytes only past 2^28 entries;
	// at one byte the bound is slack by exactly four.
	entries := []uint32{math.MaxUint32 / 2, 0, math.MaxUint32 / 2, 0, math.MaxUint32 / 2}
	if got, want := len(CodecGroupVarint.EncodeBlock(nil, entries)), MaxEncodedLen(5)-4; got != want {
		t.Errorf("groupvarint worst case: 5 entries encode to %d bytes, want %d", got, want)
	}
}

func TestBlockLayoutArithmetic(t *testing.T) {
	raw := RawBlockLayout(100)
	if !raw.FixedEntries() || raw.NumBlocks() != 1 {
		t.Fatalf("raw layout: fixed=%v blocks=%d", raw.FixedEntries(), raw.NumBlocks())
	}
	lo, hi := raw.BlockRange(0)
	if lo != 0 || hi != 400 {
		t.Fatalf("raw block 0 extent [%d,%d)", lo, hi)
	}

	l := BlockLayout{
		Codec:        CodecGroupVarint,
		BlockEntries: 8,
		NumEntries:   20,
		BlockOffs:    []int64{0, 11, 25, 31},
	}
	if l.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3", l.NumBlocks())
	}
	if got := l.EntriesIn(0); got != 8 {
		t.Fatalf("EntriesIn(0) = %d", got)
	}
	if got := l.EntriesIn(2); got != 4 {
		t.Fatalf("EntriesIn(2) = %d, want the short tail 4", got)
	}
	if lo, hi := l.BlockRange(1); lo != 11 || hi != 25 {
		t.Fatalf("block 1 extent [%d,%d)", lo, hi)
	}
	if l.TableBytes() != 32 {
		t.Fatalf("TableBytes = %d", l.TableBytes())
	}
}

// benchEntries builds a power-law-ish ascending-run workload: the shape
// a delta codec sees on a converted DOS v2 graph.
func benchEntries(n int) []uint32 {
	rng := rand.New(rand.NewSource(42))
	out := make([]uint32, n)
	v := uint32(0)
	for i := range out {
		if rng.Intn(64) == 0 {
			v = uint32(rng.Intn(1 << 10)) // new adjacency list, small head ID
		} else {
			v += uint32(rng.Intn(8))
		}
		out[i] = v
	}
	return out
}

func BenchmarkCodecEncode(b *testing.B) {
	entries := benchEntries(DefaultBlockSize / 4)
	for _, c := range codecs {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			buf := make([]byte, 0, MaxEncodedLen(len(entries)))
			b.SetBytes(int64(4 * len(entries)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = c.EncodeBlock(buf[:0], entries)
			}
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	entries := benchEntries(DefaultBlockSize / 4)
	for _, c := range codecs {
		c := c
		enc := c.EncodeBlock(nil, entries)
		b.Run(c.Name(), func(b *testing.B) {
			dec := make([]uint32, 0, len(entries))
			b.SetBytes(int64(4 * len(entries)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				dec, err = c.DecodeBlock(dec[:0], enc)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
