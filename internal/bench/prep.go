package bench

import (
	"fmt"
	"sync"
	"time"

	"graphz/internal/csr"
	"graphz/internal/dos"
	"graphz/internal/graph"
	"graphz/internal/graphchi"
	"graphz/internal/sim"
	"graphz/internal/storage"
	"graphz/internal/xstream"
)

// Format names an on-device graph representation.
type Format string

// The four preprocessed formats.
const (
	FormatDOS Format = "dos" // degree-ordered storage (GraphZ)
	FormatCSR Format = "csr" // CSR (the no-DOS ablations)
	FormatChi Format = "chi" // GraphChi shards
	FormatXS  Format = "xs"  // X-Stream streaming partitions
)

// Prefix is the on-device name prefix every preprocessed graph uses.
const Prefix = "g"

// RawEdgeFile is the on-device name of the raw input edge list.
const RawEdgeFile = "raw"

// PrepResult is a memoized preprocessed graph on a device, with the cost
// of producing it.
type PrepResult struct {
	Dev     *storage.Device
	Err     error // e.g. the device ran out of capacity
	Time    time.Duration
	Compute time.Duration
	IO      time.Duration
	Stats   storage.Stats
}

type prepKey struct {
	scale    string
	format   Format
	kind     storage.Kind
	evalSize int
	sym      bool
}

var (
	prepMu   sync.Mutex
	prepMemo = map[prepKey]*PrepResult{}
)

// Prep preprocesses a scale into the given format on a fresh device of
// the given kind, memoizing the result. DOS is the paper's v1 format: raw
// 4-byte entries, no block codec. Callers that run algorithms on the
// returned device must ResetStats/SetClock first and clean their runtime
// files after.
func Prep(s Scale, format Format, kind storage.Kind, evalSize int, sym bool) *PrepResult {
	key := prepKey{s.Name, format, kind, evalSize, sym}
	prepMu.Lock()
	defer prepMu.Unlock()
	if r, ok := prepMemo[key]; ok {
		return r
	}
	r := doPrep(s, format, kind, evalSize, sym)
	prepMemo[key] = r
	return r
}

func doPrep(s Scale, format Format, kind storage.Kind, evalSize int, sym bool) *PrepResult {
	clock := sim.NewClock()
	dev := NewDevice(kind, nil) // raw ingest is not charged
	edges := EdgesFor(s, sym)
	if err := graph.WriteEdges(dev, RawEdgeFile, edges); err != nil {
		return &PrepResult{Dev: dev, Err: fmt.Errorf("bench: ingesting %s: %w", s.Name, err)}
	}
	dev.SetClock(clock)
	clock.BeginPhase("preprocess")

	var err error
	switch format {
	case FormatDOS:
		_, err = dos.Convert(dos.ConvertConfig{Dev: dev, Clock: clock, MemoryBudget: DefaultBudget / 4, RemoveInput: true}, RawEdgeFile, Prefix)
	case FormatCSR:
		_, err = csr.Build(csr.BuildConfig{Dev: dev, Clock: clock, MemoryBudget: DefaultBudget / 4}, RawEdgeFile, Prefix)
	case FormatChi:
		// Shards are sized against the RUN-time budget (one shard
		// plus its interval's vertices must fit in memory during
		// PSW), not the sort-chunk budget.
		_, err = graphchi.Shard(graphchi.ShardConfig{
			Dev: dev, Clock: clock, MemoryBudget: DefaultBudget, EdgeValSize: evalSize,
		}, RawEdgeFile, Prefix)
	case FormatXS:
		_, err = xstream.Partition(xstream.PartitionConfig{
			Dev: dev, Clock: clock, MemoryBudget: DefaultBudget,
		}, RawEdgeFile, Prefix)
	default:
		err = fmt.Errorf("bench: unknown format %q", format)
	}
	res := &PrepResult{
		Dev:     dev,
		Err:     err,
		Time:    clock.Total(),
		Compute: clock.TotalCompute(),
		IO:      clock.TotalIO(),
		Stats:   dev.Stats(),
	}
	dev.SetClock(nil)
	return res
}
