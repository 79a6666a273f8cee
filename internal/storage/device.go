// Package storage simulates the block storage device backing every
// out-of-core engine in the reproduction.
//
// The paper evaluates on a physical HDD and SSD; this repository does not
// have those, so all data movement runs through a Device: a named-file
// store whose bytes live in memory ("disk" memory, distinct from the
// engines' modeled RAM budget) but whose every read and write is charged
// to a seek-plus-bandwidth cost model and counted in Stats. All three
// engines move their real data through the same device, so the IO-volume
// and seek comparisons that drive the paper's results are preserved (see
// DESIGN.md, substitutions).
package storage

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"graphz/internal/sim"
)

// Kind selects a device cost profile.
type Kind int

const (
	// HDD models a 7200 rpm magnetic disk: expensive seeks, moderate
	// sequential bandwidth.
	HDD Kind = iota
	// SSD models a SATA solid-state drive: cheap "seeks" (command
	// overhead), high bandwidth.
	SSD
	// NullDevice charges no time and has unlimited capacity; useful in
	// unit tests that exercise logic rather than cost.
	NullDevice
)

// String returns the device kind name.
func (k Kind) String() string {
	switch k {
	case HDD:
		return "HDD"
	case SSD:
		return "SSD"
	case NullDevice:
		return "null"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a command-line device name, "hdd" or "ssd".
func ParseKind(name string) (Kind, error) {
	switch name {
	case "hdd":
		return HDD, nil
	case "ssd":
		return SSD, nil
	}
	return 0, fmt.Errorf("storage: unknown device %q (want hdd or ssd)", name)
}

// Profile holds the cost model parameters for a device kind.
type Profile struct {
	// SeekLatency is charged whenever an access is not sequential with
	// the previous access to the same file.
	SeekLatency time.Duration
	// ReadBandwidth and WriteBandwidth are in bytes per second.
	ReadBandwidth  float64
	WriteBandwidth float64
}

// Profiles for the built-in kinds, loosely calibrated to the paper's
// hardware (internal HDD, Samsung 850 Pro class SSD).
var profiles = map[Kind]Profile{
	HDD:        {SeekLatency: 8 * time.Millisecond, ReadBandwidth: 140e6, WriteBandwidth: 130e6},
	SSD:        {SeekLatency: 60 * time.Microsecond, ReadBandwidth: 520e6, WriteBandwidth: 480e6},
	NullDevice: {SeekLatency: 0, ReadBandwidth: 0, WriteBandwidth: 0},
}

// ProfileFor returns the cost profile of a kind.
func ProfileFor(k Kind) Profile { return profiles[k] }

// Stats counts the physical device traffic of a run. With the page-cache
// model enabled, reads served from cached pages appear only in CacheHits.
type Stats struct {
	ReadOps    int64
	WriteOps   int64
	ReadBytes  int64
	WriteBytes int64
	Seeks      int64
	CacheHits  int64 // pages served from the OS page-cache model
	// RemoveErrors counts Remove calls that failed; callers that ignore
	// Remove's error still leave an audit trail here.
	RemoveErrors int64
}

// Add returns the element-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		ReadOps:      s.ReadOps + o.ReadOps,
		WriteOps:     s.WriteOps + o.WriteOps,
		ReadBytes:    s.ReadBytes + o.ReadBytes,
		WriteBytes:   s.WriteBytes + o.WriteBytes,
		Seeks:        s.Seeks + o.Seeks,
		CacheHits:    s.CacheHits + o.CacheHits,
		RemoveErrors: s.RemoveErrors + o.RemoveErrors,
	}
}

// Sub returns the element-wise difference of s and o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ReadOps:      s.ReadOps - o.ReadOps,
		WriteOps:     s.WriteOps - o.WriteOps,
		ReadBytes:    s.ReadBytes - o.ReadBytes,
		WriteBytes:   s.WriteBytes - o.WriteBytes,
		Seeks:        s.Seeks - o.Seeks,
		CacheHits:    s.CacheHits - o.CacheHits,
		RemoveErrors: s.RemoveErrors - o.RemoveErrors,
	}
}

// String summarizes the stats for logs.
func (s Stats) String() string {
	out := fmt.Sprintf("reads=%d (%d B) writes=%d (%d B) seeks=%d",
		s.ReadOps, s.ReadBytes, s.WriteOps, s.WriteBytes, s.Seeks)
	if s.CacheHits > 0 {
		out += fmt.Sprintf(" cacheHits=%d", s.CacheHits)
	}
	if s.RemoveErrors > 0 {
		out += fmt.Sprintf(" removeErrors=%d", s.RemoveErrors)
	}
	return out
}

// ErrNoSpace is returned when a write would exceed the device capacity,
// reproducing the paper's "graph exceeds SSD capacity" failure mode.
var ErrNoSpace = errors.New("storage: device out of space")

// ErrNotFound is returned when opening a file that does not exist.
var ErrNotFound = errors.New("storage: file not found")

// Device is a simulated block device holding named files. It is safe for
// concurrent use.
type Device struct {
	kind     Kind
	profile  Profile
	capacity int64 // bytes; 0 means unlimited
	clock    *sim.Clock

	mu    sync.Mutex
	files map[string]*file
	stats Stats
	// fileStats attributes physical traffic per file name. It is keyed
	// separately from files so the attribution survives Remove — engines
	// delete their message files at the end of a run, after which the
	// run report still wants to know what they cost.
	fileStats map[string]*Stats
	used      int64
	cache     *pageCache // nil unless PageCacheBytes > 0
	inj       *injector  // nil unless constructed via NewFaultDevice
}

// extentBytes is the unit a file's bytes are held in. A quarter of the
// streams' block, so a block-sized operation copies through four of
// them and a file of a few bytes costs one.
const extentBytes = 64 << 10

type file struct {
	name string
	size int64
	// ext[i] holds bytes [i*extentBytes, (i+1)*extentBytes) of the file.
	// Growing the file attaches extents and shrinking it drops them; the
	// bytes already stored never move. What lies at or past size in the
	// last extent is zero (setSize).
	ext [][]byte
	// lastReadEnd / lastWriteEnd track sequentiality per stream
	// direction; an access that does not start where the previous one
	// of the same direction ended is charged a seek.
	lastReadEnd  int64
	lastWriteEnd int64
}

// Options configures a Device.
type Options struct {
	// Capacity in bytes; 0 means unlimited.
	Capacity int64
	// Clock receives IO time charges; nil means charges are dropped
	// (stats are still counted).
	Clock *sim.Clock
	// PageCacheBytes enables the OS page-cache model: reads of cached
	// pages are free, misses charge normally and populate the cache.
	// 0 disables it (every byte charged — the harness default).
	PageCacheBytes int64
}

// NewDevice creates a device of the given kind.
func NewDevice(kind Kind, opts Options) *Device {
	d := &Device{
		kind:     kind,
		profile:  profiles[kind],
		capacity: opts.Capacity,
		clock:    opts.Clock,
		files:    make(map[string]*file),
	}
	if opts.PageCacheBytes > 0 {
		d.cache = newPageCache(opts.PageCacheBytes)
	}
	return d
}

// Kind returns the device kind.
func (d *Device) Kind() Kind { return d.kind }

// Capacity returns the device capacity in bytes (0 = unlimited).
func (d *Device) Capacity() int64 { return d.capacity }

// SetClock redirects subsequent IO time charges to clock (which may be
// nil). Used by harnesses that reuse one device across phases measured by
// different clocks.
func (d *Device) SetClock(clock *sim.Clock) {
	d.mu.Lock()
	d.clock = clock
	d.mu.Unlock()
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the device counters, global and per-file (file
// contents are untouched).
func (d *Device) ResetStats() {
	d.mu.Lock()
	d.stats = Stats{}
	d.fileStats = nil
	d.mu.Unlock()
}

// FileStats returns a snapshot of the per-file traffic counters, keyed
// by file name. Attribution survives Remove: a deleted file's traffic
// stays visible (run reports account the whole run, including runtime
// files cleaned up at the end).
func (d *Device) FileStats() map[string]Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]Stats, len(d.fileStats))
	for n, s := range d.fileStats {
		out[n] = *s
	}
	return out
}

// ForgetFileStats drops the per-file counters of every name starting
// with prefix. A long-lived device calls it once the owner of a family
// of removed runtime files (one served job) has reported their traffic;
// the device-wide Stats are unaffected.
func (d *Device) ForgetFileStats(prefix string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for name := range d.fileStats {
		if strings.HasPrefix(name, prefix) {
			delete(d.fileStats, name)
		}
	}
}

// fileStat returns the per-file accumulator for name. Caller holds d.mu.
func (d *Device) fileStat(name string) *Stats {
	s, ok := d.fileStats[name]
	if !ok {
		if d.fileStats == nil {
			d.fileStats = make(map[string]*Stats)
		}
		s = &Stats{}
		d.fileStats[name] = s
	}
	return s
}

// Used returns the number of bytes currently stored on the device.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Create creates (or truncates) the named file and returns a handle.
func (d *Device) Create(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if j := d.inj; j != nil && j.crashed {
		return nil, ErrCrashed
	}
	if f, ok := d.files[name]; ok {
		d.setSize(f, 0)
		f.lastReadEnd, f.lastWriteEnd = 0, 0
		if d.cache != nil {
			d.cache.invalidateFile(f)
		}
		return &File{dev: d, f: f}, nil
	}
	f := &file{name: name}
	d.files[name] = f
	return &File{dev: d, f: f}, nil
}

// Open returns a handle to an existing file.
func (d *Device) Open(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if j := d.inj; j != nil && j.crashed {
		return nil, ErrCrashed
	}
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &File{dev: d, f: f}, nil
}

// Exists reports whether the named file exists.
func (d *Device) Exists(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.files[name]
	return ok
}

// Remove deletes the named file, freeing its capacity. Removing a missing
// file is not an error. Failures (injected faults, a crashed device) are
// returned AND counted in Stats.RemoveErrors, so callers that discard the
// error still leave an audit trail.
func (d *Device) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if j := d.inj; j != nil {
		if _, err := j.op(opRemove, 0); err != nil {
			d.stats.RemoveErrors++
			return fmt.Errorf("storage: removing %q: %w", name, err)
		}
	}
	if f, ok := d.files[name]; ok {
		d.setSize(f, 0)
		delete(d.files, name)
		if d.cache != nil {
			d.cache.invalidateFile(f)
		}
	}
	return nil
}

// List returns the names of all files on the device, sorted.
func (d *Device) List() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Size returns the size of the named file in bytes.
func (d *Device) Size(name string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return f.size, nil
}

// chargeRead accounts one read op of n bytes at offset off. Caller holds
// d.mu.
func (d *Device) chargeRead(f *file, off, n int64) {
	fs := d.fileStat(f.name)
	if d.cache != nil {
		pages := (off+n-1)/PageBytes - off/PageBytes + 1
		misses := int64(d.cache.span(f, off, n))
		d.stats.CacheHits += pages - misses
		fs.CacheHits += pages - misses
		if misses == 0 {
			// Served entirely from the page cache: no physical IO.
			return
		}
		n = misses * PageBytes
	}
	d.stats.ReadOps++
	d.stats.ReadBytes += n
	fs.ReadOps++
	fs.ReadBytes += n
	var t time.Duration
	if off != f.lastReadEnd {
		d.stats.Seeks++
		fs.Seeks++
		t += d.profile.SeekLatency
	}
	f.lastReadEnd = off + n
	if d.profile.ReadBandwidth > 0 {
		t += time.Duration(float64(n) / d.profile.ReadBandwidth * float64(time.Second))
	}
	d.clock.IO(t)
}

// chargeWrite accounts one write op of n bytes at offset off (writes are
// write-through and populate the page cache). Caller holds d.mu.
func (d *Device) chargeWrite(f *file, off, n int64) {
	if d.cache != nil {
		d.cache.span(f, off, n)
	}
	fs := d.fileStat(f.name)
	d.stats.WriteOps++
	d.stats.WriteBytes += n
	fs.WriteOps++
	fs.WriteBytes += n
	var t time.Duration
	if off != f.lastWriteEnd {
		d.stats.Seeks++
		fs.Seeks++
		t += d.profile.SeekLatency
	}
	f.lastWriteEnd = off + n
	if d.profile.WriteBandwidth > 0 {
		t += time.Duration(float64(n) / d.profile.WriteBandwidth * float64(time.Second))
	}
	d.clock.IO(t)
}

// setSize makes the file size bytes long by attaching or dropping extents.
// Extents come zeroed from make and a shrink zeroes what it cuts off the
// last extent it keeps, so the bytes at or past size are always zero:
// growth exposes zeros — the gap a write past the end leaves, the tail a
// Truncate adds — without clearing anything. Caller holds d.mu and has
// checked the capacity.
func (d *Device) setSize(f *file, size int64) {
	d.used += size - f.size
	need := int((size + extentBytes - 1) / extentBytes)
	if size < f.size && need > 0 {
		base := int64(need-1) * extentBytes
		clear(f.ext[need-1][size-base : min(f.size-base, extentBytes)])
	}
	for len(f.ext) < need {
		f.ext = append(f.ext, make([]byte, extentBytes))
	}
	clear(f.ext[need:])
	f.ext = f.ext[:need]
	f.size = size
}

// write stores p at off, growing the file to hold it: the one way bytes
// reach a file, of which an append is the off == size case. No
// charging, fault or capacity checks. Caller holds d.mu.
func (d *Device) write(f *file, p []byte, off int64) {
	if end := off + int64(len(p)); end > f.size {
		d.setSize(f, end)
	}
	for len(p) > 0 {
		n := copy(f.ext[off/extentBytes][off%extentBytes:], p)
		p, off = p[n:], off+int64(n)
	}
}

// read copies the file's bytes from off, which lies inside the file, into
// p, as far as the file goes, and returns how many. Caller holds d.mu.
func (f *file) read(p []byte, off int64) int {
	if left := f.size - off; left < int64(len(p)) {
		p = p[:left]
	}
	for rest := p; len(rest) > 0; {
		n := copy(rest, f.ext[off/extentBytes][off%extentBytes:])
		rest, off = rest[n:], off+int64(n)
	}
	return len(p)
}

// File is a handle to a device file. Handles are cheap; any number may
// exist for one file and all share the underlying bytes.
type File struct {
	dev *Device
	f   *file
}

// Name returns the file name.
func (h *File) Name() string { return h.f.name }

// Size returns the current file size.
func (h *File) Size() int64 {
	h.dev.mu.Lock()
	defer h.dev.mu.Unlock()
	return h.f.size
}

// ReadAt reads len(p) bytes at offset off. Short reads at EOF return the
// number of bytes read and io.EOF semantics are replaced by an explicit
// count: n < len(p) means EOF was reached.
func (h *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d reading %q", off, h.f.name)
	}
	h.dev.mu.Lock()
	defer h.dev.mu.Unlock()
	if j := h.dev.inj; j != nil {
		if _, err := j.op(opRead, len(p)); err != nil {
			return 0, fmt.Errorf("storage: reading %q: %w", h.f.name, err)
		}
	}
	if off >= h.f.size {
		return 0, nil
	}
	n := h.f.read(p, off)
	h.dev.chargeRead(h.f, off, int64(n))
	return n, nil
}

// WriteAt writes len(p) bytes at offset off, extending the file if needed.
// Writing past the current end zero-fills any gap.
func (h *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d writing %q", off, h.f.name)
	}
	h.dev.mu.Lock()
	defer h.dev.mu.Unlock()
	return h.writeLocked(p, off)
}

// hasRoom reports whether the device can hold f grown to end bytes.
// Caller holds d.mu.
func (d *Device) hasRoom(f *file, end int64) bool {
	return end <= f.size || d.capacity == 0 || d.used+end-f.size <= d.capacity
}

// writeLocked is one counted, charged device write. Caller holds d.mu.
func (h *File) writeLocked(p []byte, off int64) (int, error) {
	d, f := h.dev, h.f
	if j := d.inj; j != nil {
		if torn, err := j.op(opWrite, len(p)); err != nil {
			if torn > 0 && d.hasRoom(f, off+int64(torn)) {
				// The crash interrupted the transfer mid-write: a
				// seeded prefix reaches the media, the rest is lost —
				// the torn-write case durable formats must detect. No
				// charging; a prefix the device has no room for is
				// dropped (it is full and crashed).
				d.write(f, p[:torn], off)
				if d.cache != nil {
					d.cache.span(f, off, int64(torn))
				}
			}
			return 0, fmt.Errorf("storage: writing %q: %w", f.name, err)
		}
	}
	if end := off + int64(len(p)); !d.hasRoom(f, end) {
		return 0, fmt.Errorf("%w: %q needs %d bytes, %d of %d used",
			ErrNoSpace, f.name, end-f.size, d.used, d.capacity)
	}
	d.write(f, p, off)
	d.chargeWrite(f, off, int64(len(p)))
	return len(p), nil
}

// Append writes p at the end of the file and returns the offset at which
// the data landed. Finding the end and writing there are one critical
// section, so concurrent appenders never overlap.
func (h *File) Append(p []byte) (int64, error) {
	h.dev.mu.Lock()
	defer h.dev.mu.Unlock()
	off := h.f.size
	if _, err := h.writeLocked(p, off); err != nil {
		return 0, err
	}
	return off, nil
}

// Truncate resizes the file to size bytes.
func (h *File) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("storage: negative truncate size %d for %q", size, h.f.name)
	}
	h.dev.mu.Lock()
	defer h.dev.mu.Unlock()
	if j := h.dev.inj; j != nil {
		if _, err := j.op(opTrunc, 0); err != nil {
			return fmt.Errorf("storage: truncating %q: %w", h.f.name, err)
		}
	}
	if !h.dev.hasRoom(h.f, size) {
		return fmt.Errorf("%w: truncate %q to %d", ErrNoSpace, h.f.name, size)
	}
	h.dev.setSize(h.f, size)
	if h.f.lastReadEnd > size {
		h.f.lastReadEnd = size
	}
	if h.f.lastWriteEnd > size {
		h.f.lastWriteEnd = size
	}
	return nil
}
