package storage

import (
	"fmt"
	"io"
	"slices"
)

// DefaultBlockSize is the transfer unit of the buffered streams: engines
// issue device operations in blocks of this size so that op and seek
// counts reflect realistic request sizes rather than per-record calls.
const DefaultBlockSize = 256 * 1024

// Reader streams a file (or a sub-range of it) sequentially through a
// block-sized buffer. It implements io.Reader. A zero Reader is ready for
// Reset.
type Reader struct {
	f    *File
	off  int64
	end  int64
	buf  []byte // one DefaultBlockSize block
	rest []byte // the part of buf not yet read
	rec  []byte // Next's assembly of a record that straddles two blocks
}

// NewReader returns a Reader over the whole file with the default block
// size.
func NewReader(f *File) *Reader {
	return NewRangeReader(f, 0, f.Size())
}

// NewRangeReader returns a Reader over file bytes [off, end).
func NewRangeReader(f *File, off, end int64) *Reader {
	r := new(Reader)
	r.Reset(f, off, end)
	return r
}

// Reset makes r a Reader over bytes [off, end) of f that keeps r's block
// buffer: one Reader can stream many files in turn.
func (r *Reader) Reset(f *File, off, end int64) {
	r.f, r.off, r.end, r.rest = f, off, end, nil
}

// Remaining returns the number of unread bytes, including buffered ones.
func (r *Reader) Remaining() int64 {
	return r.end - r.off + int64(len(r.rest))
}

func (r *Reader) fill() error {
	if r.off >= r.end {
		return io.EOF
	}
	if r.buf == nil {
		r.buf = make([]byte, DefaultBlockSize)
	}
	want := int64(len(r.buf))
	if left := r.end - r.off; left < want {
		want = left
	}
	n, err := r.f.ReadAt(r.buf[:want], r.off)
	if err != nil {
		return err
	}
	if n == 0 {
		return io.EOF
	}
	r.off += int64(n)
	r.rest = r.buf[:n]
	return nil
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

// ReadFull reads exactly len(p) bytes or returns an error; io.EOF is
// returned only at a record boundary (nothing read), io.ErrUnexpectedEOF
// otherwise.
func (r *Reader) ReadFull(p []byte) error {
	total := 0
	for total < len(p) {
		n, err := r.Read(p[total:])
		total += n
		if err != nil {
			if err == io.EOF && total == 0 {
				return io.EOF
			}
			if err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Next returns the next n bytes of the stream as a view into the block
// buffer, valid until the next call on r: ReadFull without the copy. It
// issues the device reads ReadFull issues for the same bytes, when
// ReadFull issues them; only a record that straddles two blocks is
// assembled in a buffer of its own. The error is io.EOF at a record
// boundary and io.ErrUnexpectedEOF inside a record.
func (r *Reader) Next(n int) ([]byte, error) {
	if n > len(r.rest) {
		return r.nextRefill(n)
	}
	p := r.rest[:n]
	r.rest = r.rest[n:]
	return p, nil
}

// nextRefill is Next when the buffered bytes do not hold the record.
func (r *Reader) nextRefill(n int) ([]byte, error) {
	if len(r.rest) == 0 {
		if err := r.fill(); err != nil {
			return nil, err
		}
		if n <= len(r.rest) {
			return r.Next(n)
		}
	}
	if cap(r.rec) < n {
		r.rec = make([]byte, n)
	}
	if err := r.ReadFull(r.rec[:n]); err != nil {
		return nil, err
	}
	return r.rec[:n], nil
}

// Writer streams sequential appends to a file through a block-sized
// buffer. It implements io.Writer; Flush or Close must be called to
// persist the tail. A zero Writer is ready for Reset.
type Writer struct {
	f   *File
	off int64
	// buf holds the bytes not yet written: at most a block of them
	// between calls, and past that only between Next and Commit.
	buf []byte
}

// writerSlack is the room a Writer's buffer has past a block, so that
// Next can hand out a record that straddles two blocks in one piece.
// A longer record grows the buffer.
const writerSlack = 64

// NewWriter returns a Writer appending at the end of f with the default
// block size.
func NewWriter(f *File) *Writer {
	return NewWriterAt(f, f.Size())
}

// NewWriterAt returns a Writer writing sequentially starting at off.
func NewWriterAt(f *File, off int64) *Writer {
	w := new(Writer)
	w.Reset(f, off)
	return w
}

// Reset makes w a Writer at offset off of f that keeps w's block buffer,
// dropping whatever it held unflushed.
func (w *Writer) Reset(f *File, off int64) {
	if w.buf == nil {
		w.buf = make([]byte, 0, DefaultBlockSize+writerSlack)
	}
	w.f, w.off, w.buf = f, off, w.buf[:0]
}

// Offset returns the file offset the next byte will land at.
func (w *Writer) Offset() int64 { return w.off + int64(len(w.buf)) }

// Next returns the next n bytes of the stream for the caller to fill
// where they lie in the block buffer; Commit, which must follow before
// any other call on w, makes them part of the stream. The pair is
// Write(p) without building p elsewhere and copying it, and issues the
// device writes Write issues, when Write issues them: Commit after the
// record is filled is where Write's flush falls.
func (w *Writer) Next(n int) []byte {
	at := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:at+n]
	return w.buf[at:]
}

// Commit ends the record Next handed out, writing out each block the
// stream now extends past — as Write does, a block that is exactly full
// waits for the next byte.
func (w *Writer) Commit() error {
	if len(w.buf) <= DefaultBlockSize {
		return nil
	}
	return w.writeBlocks()
}

func (w *Writer) writeBlocks() error {
	for len(w.buf) > DefaultBlockSize {
		if _, err := w.f.WriteAt(w.buf[:DefaultBlockSize], w.off); err != nil {
			return err
		}
		w.off += DefaultBlockSize
		w.buf = w.buf[:copy(w.buf, w.buf[DefaultBlockSize:])]
	}
	return nil
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		space := DefaultBlockSize - len(w.buf)
		if space == 0 {
			if err := w.Flush(); err != nil {
				return total, err
			}
			space = DefaultBlockSize
		}
		n := len(p)
		if n > space {
			n = space
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		total += n
	}
	return total, nil
}

// Flush writes any buffered bytes to the device.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.WriteAt(w.buf, w.off); err != nil {
		return err
	}
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the writer. The file needs no separate close.
func (w *Writer) Close() error { return w.Flush() }

// ReadFullAt fills p from f starting at off, one DefaultBlockSize device
// read at a time: the operations a Reader over the same range issues, made
// straight into p instead of through the Reader's buffer. A file that ends
// before p is full is io.ErrUnexpectedEOF.
func ReadFullAt(f *File, p []byte, off int64) error {
	for len(p) > 0 {
		n, err := f.ReadAt(p[:min(len(p), DefaultBlockSize)], off)
		if err != nil {
			return err
		}
		if n == 0 {
			return io.ErrUnexpectedEOF
		}
		p, off = p[n:], off+int64(n)
	}
	return nil
}

// WriteFullAt writes p to f starting at off, one DefaultBlockSize device
// write at a time: the operations a Writer at off issues for Write(p) and
// Flush, made straight from p instead of through the Writer's buffer.
func WriteFullAt(f *File, p []byte, off int64) error {
	for len(p) > 0 {
		n, err := f.WriteAt(p[:min(len(p), DefaultBlockSize)], off)
		if err != nil {
			return err
		}
		p, off = p[n:], off+int64(n)
	}
	return nil
}

// WriteAll creates (or truncates) the named file and writes data to it in
// block-sized operations.
func WriteAll(dev *Device, name string, data []byte) error {
	f, err := dev.Create(name)
	if err != nil {
		return err
	}
	w := NewWriter(f)
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("storage: writing %q: %w", name, err)
	}
	return w.Flush()
}

// ReadAllFile reads the full contents of the named file in block-sized
// operations.
func ReadAllFile(dev *Device, name string) ([]byte, error) {
	f, err := dev.Open(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, f.Size())
	r := NewReader(f)
	if len(out) == 0 {
		return out, nil
	}
	if err := r.ReadFull(out); err != nil {
		return nil, fmt.Errorf("storage: reading %q: %w", name, err)
	}
	return out, nil
}
