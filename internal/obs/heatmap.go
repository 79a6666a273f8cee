package obs

import (
	"sort"
	"sync"
)

// BlockHeatmap attributes block-granular IO activity to (file, block)
// cells: read bytes from the Sio prefetchers, decode time from the block
// codec, and drain message fan-in from the MsgManager. Engines feed it from producer
// goroutines, so every Add is mutex-guarded; a nil *BlockHeatmap ignores
// all writes — the disabled fast path, matching the package's other
// instruments.
type BlockHeatmap struct {
	mu    sync.Mutex
	cells map[blockKey]*BlockHeat
}

type blockKey struct {
	file  string
	block int64
}

// BlockHeat is one (file, block) cell of the heatmap. Block indexes are
// in adjacency-entry blocks for edges files (BlockLayout.BlockEntries
// entries per block) and in DefaultBlockSize byte blocks for state files.
type BlockHeat struct {
	File      string `json:"file"`
	Block     int64  `json:"block"`
	ReadBytes int64  `json:"read_bytes,omitempty"` // bytes the prefetcher read of the block
	DecodeNS  int64  `json:"decode_ns,omitempty"`  // codec decode time spent on the block
	DrainMsgs int64  `json:"drain_msgs,omitempty"` // drained messages applied into the block
}

// NewBlockHeatmap returns an empty heatmap.
func NewBlockHeatmap() *BlockHeatmap {
	return &BlockHeatmap{cells: make(map[blockKey]*BlockHeat)}
}

func (h *BlockHeatmap) cell(file string, block int64) *BlockHeat {
	k := blockKey{file: file, block: block}
	c, ok := h.cells[k]
	if !ok {
		c = &BlockHeat{File: file, Block: block}
		h.cells[k] = c
	}
	return c
}

// AddRead records n bytes read of the block.
func (h *BlockHeatmap) AddRead(file string, block, n int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.cell(file, block).ReadBytes += n
	h.mu.Unlock()
}

// AddDecode records ns nanoseconds of codec decode time on the block.
func (h *BlockHeatmap) AddDecode(file string, block, ns int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.cell(file, block).DecodeNS += ns
	h.mu.Unlock()
}

// AddDrain records n drained messages applied to destinations in the
// block.
func (h *BlockHeatmap) AddDrain(file string, block, n int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.cell(file, block).DrainMsgs += n
	h.mu.Unlock()
}

// Cells returns a copy of all cells sorted by (file, block); nil when
// the heatmap is nil or empty.
func (h *BlockHeatmap) Cells() []BlockHeat {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	if len(h.cells) == 0 {
		h.mu.Unlock()
		return nil
	}
	out := make([]BlockHeat, 0, len(h.cells))
	for _, c := range h.cells {
		out = append(out, *c)
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Block < out[j].Block
	})
	return out
}
