package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Adjacency block codecs (DOS v2, docs/FORMAT.md §"Version 2"). An edges
// file is cut into fixed-entry-count blocks and each block is encoded
// independently, so a block can be fetched and decoded without touching
// its neighbors — the unit of Sio prefetch and of selective block
// scheduling. Two codecs exist: raw little-endian u32 (byte-compatible
// with a v1 block's content) and group-varint over zigzag deltas, which
// exploits the v2 guarantee that destinations within one vertex's
// adjacency ascend.

// Codec encodes and decodes one adjacency block of destination IDs.
// Implementations must be stateless and safe for concurrent use.
type Codec interface {
	// Name is the codec's stable CLI/config name.
	Name() string
	// ID is the codec's stable on-disk identifier.
	ID() byte
	// EncodeBlock appends the encoding of entries to dst and returns the
	// extended slice.
	EncodeBlock(dst []byte, entries []uint32) []byte
	// DecodeBlock appends the block's decoded entries to dst and returns
	// the extended slice. Corrupt input yields a *CodecError (matching
	// ErrCorruptBlock via errors.Is), never a panic; the number of
	// decoded entries is bounded by len(src).
	DecodeBlock(dst []uint32, src []byte) ([]uint32, error)
}

// Codec IDs as stored in the v2 meta file. ID 1 belonged to the
// byte-at-a-time varint codec retired in PR 22 (DESIGN.md §10); it stays
// reserved and is never reused, so an old file fails typed instead of
// decoding as something else.
const (
	CodecIDRaw         = byte(0)
	codecIDRetired     = 1
	CodecIDGroupVarint = byte(2)
)

// retiredCodecName is the CLI name codec ID 1 had.
const retiredCodecName = "varint"

// CodecRaw stores each entry as a little-endian u32 — the fallback for
// graphs whose destination distribution defeats delta coding.
var CodecRaw Codec = rawCodec{}

// CodecGroupVarint is the stream-vbyte-style codec. Each entry is stored
// as zigzag(entry - previous entry), the previous entry starting at 0 for
// each block: within one vertex's adjacency the v2 format guarantees
// ascending destinations, so deltas are small, and the zigzag absorbs the
// backward jump at each adjacency-list boundary. Deltas are framed in
// groups of four with one control byte holding four 2-bit byte-length
// codes. Decoding walks a 256-entry length table and reconstructs four
// entries per control byte with masked loads — no per-entry branching.
// Deltas are taken modulo 2^32 (wrap-around), so every delta zigzags into
// 32 bits and at most four data bytes; the encoding stays bijective
// because the decoder adds the delta back modulo 2^32.
var CodecGroupVarint Codec = groupVarintCodec{}

// ErrCorruptBlock is the sentinel matched (via errors.Is) by every decode
// failure on malformed block bytes.
var ErrCorruptBlock = errors.New("storage: corrupt codec block")

// CodecError reports a block decode failure and where in the block it was
// detected.
type CodecError struct {
	Codec  string // codec name
	Offset int    // byte offset within the encoded block
	Msg    string
}

func (e *CodecError) Error() string {
	return fmt.Sprintf("storage: %s block corrupt at byte %d: %s", e.Codec, e.Offset, e.Msg)
}

func (e *CodecError) Is(target error) bool { return target == ErrCorruptBlock }

// MaxEncodedLen returns the worst-case encoded size of a block of n
// entries under any registered codec — a sizing hint for encode buffers.
// It is group-varint's bound: four data bytes per entry, one control byte
// per group of four, and a uvarint entry count of at most five bytes (a
// block holds fewer than 2^35 entries). Raw needs 4n.
func MaxEncodedLen(n int) int { return 4*n + (n+3)/4 + 5 }

type rawCodec struct{}

func (rawCodec) Name() string { return "raw" }
func (rawCodec) ID() byte     { return CodecIDRaw }

func (rawCodec) EncodeBlock(dst []byte, entries []uint32) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, 4*len(entries))...)
	for i, v := range entries {
		binary.LittleEndian.PutUint32(dst[off+4*i:], v)
	}
	return dst
}

func (rawCodec) DecodeBlock(dst []uint32, src []byte) ([]uint32, error) {
	if len(src)%4 != 0 {
		return dst, &CodecError{Codec: "raw", Offset: len(src) - len(src)%4,
			Msg: fmt.Sprintf("%d trailing bytes, entries are 4 bytes", len(src)%4)}
	}
	// Size the output once and index into it: an append per entry pays a
	// capacity check per entry on what is a bulk copy.
	n, start := len(src)/4, len(dst)
	if cap(dst)-start < n {
		dst = append(make([]uint32, 0, start+n), dst...)
	}
	dst = dst[:start+n]
	out := dst[start:]
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(src)
		src = src[4:]
	}
	return dst, nil
}

type groupVarintCodec struct{}

func (groupVarintCodec) Name() string { return "groupvarint" }
func (groupVarintCodec) ID() byte     { return CodecIDGroupVarint }

// gvGroup is one row of the decode length table. The fast path reads a
// group's data bytes with two unaligned 64-bit loads — lanes 0 and 1
// always live in the first 8 bytes, lanes 2 and 3 in the 8 bytes
// starting at lane 2's offset — so a row holds the four lane masks
// (keeping the low 1–4 bytes), the in-word bit shifts for lanes 1 and
// 3, lane 2's byte offset, and the group's total data length.
type gvGroup struct {
	mask0, mask1, mask2, mask3 uint32
	sh1                        uint8 // lane 1's bit offset in the first load (8·len0)
	off2                       uint8 // lane 2's byte offset (len0+len1, 2–8)
	sh3                        uint8 // lane 3's bit offset in the second load (8·len2)
	total                      uint8
	_                          [12]uint8 // pad rows to 32 bytes: table indexing is a shift, not a multiply
}

var gvTable = func() (t [256]gvGroup) {
	mask := func(l uint8) uint32 {
		if l == 4 {
			return ^uint32(0)
		}
		return uint32(1)<<(8*uint(l)) - 1
	}
	for c := 0; c < 256; c++ {
		l0 := uint8(c)&3 + 1
		l1 := uint8(c>>2)&3 + 1
		l2 := uint8(c>>4)&3 + 1
		l3 := uint8(c>>6)&3 + 1
		t[c] = gvGroup{
			mask0: mask(l0), mask1: mask(l1), mask2: mask(l2), mask3: mask(l3),
			sh1:   8 * l0,
			off2:  l0 + l1,
			sh3:   8 * l2,
			total: l0 + l1 + l2 + l3,
		}
	}
	return
}()

// gvUnzig reverses the 32-bit zigzag, recovering a wrap-around delta.
func gvUnzig(zz uint32) uint32 {
	return uint32(int32(zz>>1) ^ -int32(zz&1))
}

// EncodeBlock writes a uvarint entry count, then the entries in groups of
// four: one control byte with four 2-bit length codes, followed by each
// entry's 32-bit-zigzagged wrap-around delta in 1–4 little-endian bytes.
// A short final group carries only its real lanes; the unused length
// codes stay zero.
func (groupVarintCodec) EncodeBlock(dst []byte, entries []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	prev := uint32(0)
	for i := 0; i < len(entries); i += 4 {
		ctrlAt := len(dst)
		dst = append(dst, 0)
		var ctrl byte
		end := i + 4
		if end > len(entries) {
			end = len(entries)
		}
		for j := i; j < end; j++ {
			v := entries[j]
			d := v - prev // wrap-around delta
			zz := (d << 1) ^ uint32(int32(d)>>31)
			n := 1
			for zz>>(8*uint(n)) != 0 {
				n++
			}
			for k := 0; k < n; k++ {
				dst = append(dst, byte(zz>>(8*uint(k))))
			}
			ctrl |= byte(n-1) << (2 * uint(j-i))
			prev = v
		}
		dst[ctrlAt] = ctrl
	}
	return dst
}

func (groupVarintCodec) DecodeBlock(dst []uint32, src []byte) ([]uint32, error) {
	cnt, hn := binary.Uvarint(src)
	if hn <= 0 {
		return dst, &CodecError{Codec: "groupvarint", Offset: 0, Msg: "truncated entry count"}
	}
	// Each entry needs at least one data byte, so a valid count never
	// exceeds the input size — this also keeps the decoded entry count
	// bounded by len(src).
	if cnt > uint64(len(src)) {
		return dst, &CodecError{Codec: "groupvarint", Offset: 0,
			Msg: fmt.Sprintf("entry count %d exceeds the %d encoded bytes", cnt, len(src))}
	}
	n := int(cnt)
	start := len(dst)
	if cap(dst)-start < n {
		nd := make([]uint32, start, start+n)
		copy(nd, dst)
		dst = nd
	}
	dst = dst[:start+n]
	out := dst[start : start+n : start+n]
	pos := hn
	prev := uint32(0)
	i := 0
	// Fast path: whole groups with 16 loadable data bytes. One table
	// lookup per control byte and two unaligned 64-bit loads from a
	// constant-length window cover all four lanes with no per-entry
	// branches; over-reads past a short group stay inside src and are
	// masked off.
	for i+4 <= n && pos+17 <= len(src) {
		g := &gvTable[src[pos]]
		data := src[pos+1 : pos+17]
		w0 := binary.LittleEndian.Uint64(data)
		w1 := binary.LittleEndian.Uint64(data[g.off2:])
		// The four lane extractions are independent (instruction-level
		// parallel); only the final prefix adds chain.
		d0 := gvUnzig(uint32(w0) & g.mask0)
		d1 := gvUnzig(uint32(w0>>(g.sh1&63)) & g.mask1)
		d2 := gvUnzig(uint32(w1) & g.mask2)
		d3 := gvUnzig(uint32(w1>>(g.sh3&63)) & g.mask3)
		v0 := prev + d0
		v1 := v0 + d1
		v2 := v1 + d2
		prev = v2 + d3
		out[i] = v0
		out[i+1] = v1
		out[i+2] = v2
		out[i+3] = prev
		pos += 1 + int(g.total)
		i += 4
	}
	// Tail path: the final (possibly short) group and any group too close
	// to the end of src for 4-byte loads, with full bounds checks.
	for i < n {
		if pos >= len(src) {
			return dst[:start], &CodecError{Codec: "groupvarint", Offset: pos, Msg: "truncated control byte"}
		}
		ctrl := src[pos]
		lanes := n - i
		if lanes > 4 {
			lanes = 4
		}
		if lanes < 4 && ctrl>>(2*uint(lanes)) != 0 {
			return dst[:start], &CodecError{Codec: "groupvarint", Offset: pos,
				Msg: fmt.Sprintf("final group has %d entries but its control byte codes unused lanes", lanes)}
		}
		pos++
		for j := 0; j < lanes; j++ {
			l := int(ctrl>>(2*uint(j)))&3 + 1
			if pos+l > len(src) {
				return dst[:start], &CodecError{Codec: "groupvarint", Offset: pos,
					Msg: fmt.Sprintf("lane needs %d bytes, %d remain", l, len(src)-pos)}
			}
			var zz uint32
			for k := 0; k < l; k++ {
				zz |= uint32(src[pos+k]) << (8 * uint(k))
			}
			pos += l
			prev += gvUnzig(zz)
			out[i+j] = prev
		}
		i += lanes
	}
	if pos != len(src) {
		return dst[:start], &CodecError{Codec: "groupvarint", Offset: pos,
			Msg: fmt.Sprintf("%d trailing bytes after %d entries", len(src)-pos, n)}
	}
	return dst, nil
}

// codecs registers every codec by ID order.
var codecs = []Codec{CodecRaw, CodecGroupVarint}

// ErrUnknownCodec is the sentinel matched (via errors.Is) when a codec ID
// or name resolves to no registered codec — including the retired ID 1 /
// name "varint".
var ErrUnknownCodec = errors.New("storage: unknown codec")

// errRetiredCodec is what codec ID 1 and its name resolve to.
func errRetiredCodec() error {
	return fmt.Errorf("%w: %q (id %d) is retired, reconvert the graph with one of %v",
		ErrUnknownCodec, retiredCodecName, codecIDRetired, CodecNames())
}

// CodecByID resolves an on-disk codec identifier. It takes the meta
// file's whole 32-bit word, so a word above 255 is unknown rather than
// its low byte's codec.
func CodecByID(id uint32) (Codec, error) {
	for _, c := range codecs {
		if uint32(c.ID()) == id {
			return c, nil
		}
	}
	if id == codecIDRetired {
		return nil, errRetiredCodec()
	}
	return nil, fmt.Errorf("%w: id %d", ErrUnknownCodec, id)
}

// CodecByName resolves a CLI/config codec name.
func CodecByName(name string) (Codec, error) {
	for _, c := range codecs {
		if c.Name() == name {
			return c, nil
		}
	}
	if name == retiredCodecName {
		return nil, errRetiredCodec()
	}
	return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownCodec, name, CodecNames())
}

// CodecNames lists the registered codec names in ID order.
func CodecNames() []string {
	out := make([]string, len(codecs))
	for i, c := range codecs {
		out[i] = c.Name()
	}
	return out
}

// BlockLayout describes how a file of adjacency entries is addressed on a
// device: the codec, the fixed entries-per-block cut, the total entry
// count, and — for block-encoded files — the byte offset of every block.
// It is the single translation point between the engine's entry-offset
// arithmetic (which compression must not disturb) and byte extents on the
// device.
type BlockLayout struct {
	Codec        Codec
	BlockEntries int64
	NumEntries   int64
	// BlockOffs[b] is the byte offset of block b's first encoded byte;
	// the final element is the file size, so block b occupies
	// [BlockOffs[b], BlockOffs[b+1]). Nil means fixed 4-byte entries
	// addressed arithmetically (the v1 / CSR layout).
	BlockOffs []int64
}

// RawBlockLayout describes a v1-style file of fixed 4-byte entries; the
// block cut is the device block, matching selective scheduling's
// granularity.
func RawBlockLayout(numEntries int64) BlockLayout {
	return BlockLayout{
		Codec:        CodecRaw,
		BlockEntries: int64(DefaultBlockSize / 4),
		NumEntries:   numEntries,
	}
}

// FixedEntries reports whether entry offsets map to byte offsets
// arithmetically (offset*4), i.e. no per-block decode is needed.
func (l BlockLayout) FixedEntries() bool { return l.BlockOffs == nil }

// NumBlocks returns how many encoded blocks the file holds.
func (l BlockLayout) NumBlocks() int64 {
	if l.BlockEntries <= 0 {
		return 0
	}
	return (l.NumEntries + l.BlockEntries - 1) / l.BlockEntries
}

// BlockRange returns the byte extent [lo, hi) of block b.
func (l BlockLayout) BlockRange(b int64) (lo, hi int64) {
	if l.BlockOffs == nil {
		return b * l.BlockEntries * 4, min64((b+1)*l.BlockEntries, l.NumEntries) * 4
	}
	return l.BlockOffs[b], l.BlockOffs[b+1]
}

// EntriesIn returns how many entries block b holds (only the final block
// may be short).
func (l BlockLayout) EntriesIn(b int64) int64 {
	return min64((b+1)*l.BlockEntries, l.NumEntries) - b*l.BlockEntries
}

// TableBytes returns the resident size of the per-block offset table.
func (l BlockLayout) TableBytes() int64 { return int64(len(l.BlockOffs)) * 8 }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
