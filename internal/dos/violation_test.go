package dos

import (
	"errors"
	"strings"
	"testing"

	"graphz/internal/storage"
)

// writeAt corrupts a device file in place.
func writeAt(t *testing.T, dev *storage.Device, name string, off int64, b []byte) {
	t.Helper()
	f, err := dev.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyViolations drives Verify over one corrupt graph per invariant
// and asserts the typed *Violation pins the right file, byte offset, and
// bucket index. Paper-graph geometry used throughout: 4 buckets with
// FirstOff {0,3,5,7}; v1 meta header is 32 bytes, v2 is 48; a bucket row
// is 16 bytes.
func TestVerifyViolations(t *testing.T) {
	cases := []struct {
		name     string
		corrupt  func(t *testing.T, dev *storage.Device) *Graph
		file     func(g *Graph) string
		offset   int64
		offsetOf func(g *Graph) int64 // computed expectation; overrides offset
		bucket   int
		substr   string
	}{
		{
			name: "v1 bucket offset breaks arithmetic",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdges(t, dev, paperEdges, "g")
				g.Buckets[1].FirstOff++
				return g
			},
			file:   (*Graph).MetaFile,
			offset: 32 + 1*BucketBytes,
			bucket: 1,
			substr: "arithmetic",
		},
		{
			name: "v1 bucket degree not decreasing",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdges(t, dev, paperEdges, "g")
				g.Buckets[2].Degree = g.Buckets[1].Degree
				return g
			},
			file:   (*Graph).MetaFile,
			offset: 32 + 2*BucketBytes,
			bucket: 2,
			substr: "not decreasing",
		},
		{
			name: "v1 bucket sum disagrees with NumEdges",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdges(t, dev, paperEdges, "g")
				g.NumEdges++
				return g
			},
			file:   (*Graph).MetaFile,
			offset: 16, // the meta NumEdges field
			bucket: 3,
			substr: "sum",
		},
		{
			name: "v1 out-of-range destination in bucket 2",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdges(t, dev, paperEdges, "g")
				// Entry 5 lives in bucket 2 (FirstOff 5).
				writeAt(t, dev, g.EdgesFile(), 5*EntryBytes, []byte{0xFF, 0xFF, 0xFF, 0x7F})
				return g
			},
			file:   (*Graph).EdgesFile,
			offset: 5 * EntryBytes,
			bucket: 2,
			substr: "out of range",
		},
		{
			name: "v1 truncated edge file",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdges(t, dev, paperEdges, "g")
				f, err := dev.Open(g.EdgesFile())
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Truncate(f.Size() - EntryBytes); err != nil {
					t.Fatal(err)
				}
				return g
			},
			file:   (*Graph).EdgesFile,
			offset: 6 * EntryBytes, // the shorter of actual and expected size
			bucket: -1,
			substr: "edge file has",
		},
		{
			name: "v1 maps disagree",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdges(t, dev, paperEdges, "g")
				// Point new ID 2 at old 5, which old2new says is new 0.
				writeAt(t, dev, "g"+suffixNew2Old, 2*4, []byte{5, 0, 0, 0})
				return g
			},
			file:   func(g *Graph) string { return g.Prefix() + suffixNew2Old },
			offset: 2 * 4,
			bucket: 2,
			substr: "disagree",
		},
		{
			name: "v2 undecodable block",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdgesV2(t, dev, paperEdges, "g", storage.CodecGroupVarint, 2)
				// Block 0 is a count, a control byte and two 1-byte
				// lanes. Coding lane 1 as 4 bytes (the unused lanes
				// stay zero) leaves it truncated.
				writeAt(t, dev, g.EdgesFile(), g.blockOffs[0]+1, []byte{0x0C})
				return g
			},
			file:   (*Graph).EdgesFile,
			offset: 0, // block 0 starts the file
			bucket: 0,
			substr: "undecodable",
		},
		{
			name: "v2 out-of-range destination in block 1",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdgesV2(t, dev, paperEdges, "g", storage.CodecRaw, 2)
				// Raw blocks of 2 entries: entry 2 is block 1's first entry.
				writeAt(t, dev, g.EdgesFile(), g.blockOffs[1], []byte{0xFF, 0xFF, 0xFF, 0x7F})
				return g
			},
			file:   (*Graph).EdgesFile,
			offset: 2 * EntryBytes, // raw blocks: block 1 starts at byte 8
			bucket: 0,              // entry 2 still belongs to bucket 0 (FirstOff 0, degree 3)
			substr: "out of range",
		},
		{
			name: "v2 groupvarint truncated length table",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdgesV2(t, dev, paperEdges, "g", storage.CodecGroupVarint, 2)
				// Block 1 holds 2 entries; its control byte directly
				// follows the count byte. 0xFF codes the two unused
				// lanes nonzero and claims 4-byte widths the block
				// does not have — a truncated/hostile length table.
				writeAt(t, dev, g.EdgesFile(), g.blockOffs[1]+1, []byte{0xFF})
				return g
			},
			file: (*Graph).EdgesFile,
			// The violation pins block 1's start; entry 2 is bucket 0.
			offsetOf: func(g *Graph) int64 { return g.blockOffs[1] },
			bucket:   0,
			substr:   "undecodable",
		},
		{
			name: "v2 groupvarint hostile block offset",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdgesV2(t, dev, paperEdges, "g", storage.CodecGroupVarint, 2)
				// Shift an interior boundary: the table stays monotone
				// and still ends at the file size, but block 0 gains a
				// trailing byte (and block 1 loses its count header) —
				// only the per-block decode check can catch it.
				g.blockOffs[1]++
				return g
			},
			file:     (*Graph).EdgesFile,
			offsetOf: func(g *Graph) int64 { return 0 },
			bucket:   0,
			substr:   "undecodable",
		},
		{
			name: "v2 block table does not end at the file size",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdgesV2(t, dev, paperEdges, "g", storage.CodecRaw, 2)
				f, err := dev.Open(g.EdgesFile())
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Truncate(f.Size() - 1); err != nil {
					t.Fatal(err)
				}
				return g
			},
			file:   (*Graph).EdgesFile,
			offset: 7*EntryBytes - 1,
			bucket: -1,
			substr: "block offset table ends",
		},
		{
			name: "v2 block table not monotone",
			corrupt: func(t *testing.T, dev *storage.Device) *Graph {
				g := convertEdgesV2(t, dev, paperEdges, "g", storage.CodecRaw, 2)
				g.blockOffs[2] = g.blockOffs[1] - 1
				return g
			},
			file:   (*Graph).MetaFile,
			offset: 48 + 4*BucketBytes + 2*8, // v2 header, 4 buckets, table entry 2
			bucket: -1,
			substr: "not monotone",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := storage.NewDevice(storage.NullDevice, storage.Options{})
			g := tc.corrupt(t, dev)
			err := Verify(g)
			if err == nil {
				t.Fatal("Verify accepted the corrupt graph")
			}
			var v *Violation
			if !errors.As(err, &v) {
				t.Fatalf("error %T is not a *Violation: %v", err, err)
			}
			if v.File != tc.file(g) {
				t.Errorf("File = %q, want %q (%v)", v.File, tc.file(g), err)
			}
			wantOff := tc.offset
			if tc.offsetOf != nil {
				wantOff = tc.offsetOf(g)
			}
			if v.Offset != wantOff {
				t.Errorf("Offset = %d, want %d (%v)", v.Offset, wantOff, err)
			}
			if v.Bucket != tc.bucket {
				t.Errorf("Bucket = %d, want %d (%v)", v.Bucket, tc.bucket, err)
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("error %q does not mention %q", err, tc.substr)
			}
		})
	}
}

// TestVerifyViolationUnwrapsCodecError holds the typed-error chain: a
// decode failure inside Verify still matches storage.ErrCorruptBlock.
func TestVerifyViolationUnwrapsCodecError(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	g := convertEdgesV2(t, dev, paperEdges, "g", storage.CodecGroupVarint, 2)
	writeAt(t, dev, g.EdgesFile(), g.blockOffs[0]+1, []byte{0x0C}) // lane 1 coded 4 bytes, 1 remains
	verr := Verify(g)
	if !errors.Is(verr, storage.ErrCorruptBlock) {
		t.Errorf("Verify error %v does not match storage.ErrCorruptBlock", verr)
	}
}

// TestVerifyV2Graphs runs the full checker over clean v2 conversions of
// the standard corpus under both codecs.
func TestVerifyV2Graphs(t *testing.T) {
	for _, codec := range []storage.Codec{storage.CodecRaw, storage.CodecGroupVarint} {
		dev := storage.NewDevice(storage.NullDevice, storage.Options{})
		g := convertEdgesV2(t, dev, paperEdges, "g", codec, 2)
		if err := Verify(g); err != nil {
			t.Errorf("%s: %v", codec.Name(), err)
		}
		g2 := convertEdgesV2(t, dev, nil, "empty", codec, 0)
		if err := Verify(g2); err != nil {
			t.Errorf("%s empty: %v", codec.Name(), err)
		}
	}
}
