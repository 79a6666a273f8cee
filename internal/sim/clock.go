// Package sim provides the modeled-time accounting shared by every engine
// in the reproduction: a phase-structured clock that accumulates compute
// time (from work-unit counts times calibrated costs) and IO time (charged
// by the simulated storage device), and reports the modeled runtime as the
// sum over phases of max(compute, io).
//
// Granting every framework perfect IO/compute overlap is conservative for
// GraphZ: the paper credits GraphZ's deep pipeline, but under this model
// GraphZ must win on IO volume and iteration count alone, which is the
// paper's core claim (see DESIGN.md).
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Calibrated compute costs, in nanoseconds per unit of work. The absolute
// values approximate a ~4 GHz x86 core running tight Go loops; only their
// ratios matter for the reproduced comparisons because every engine is
// charged from the same table.
const (
	// CostVertexUpdate is charged per update() invocation (loop setup,
	// value read-modify-write).
	CostVertexUpdate = 14 * time.Nanosecond
	// CostEdgeScan is charged per adjacency entry visited.
	CostEdgeScan = 4 * time.Nanosecond
	// CostMessageSend is charged per message constructed and routed.
	CostMessageSend = 5 * time.Nanosecond
	// CostMessageApply is charged per apply_message() invocation.
	CostMessageApply = 6 * time.Nanosecond
	// CostRecordSort is charged per record per merge-sort level in
	// external sorting (comparison + move).
	CostRecordSort = 9 * time.Nanosecond
	// CostActiveScan is charged per item the selective block scheduler's
	// planning pass examines: each adjacency block of the partition it
	// decides on, plus — when it plans a sparse schedule — each set bit
	// it walks (a span computation and a block mark). It is the compute
	// price of skipping IO, and it follows the frontier, not the vertex
	// count.
	CostActiveScan = 1 * time.Nanosecond
	// CostByteCopy is charged per byte for bulk buffer copies
	// (dispatcher parsing, shuffle binning). Expressed per 4 bytes
	// because time.Duration has nanosecond granularity: 1 ns / 4 B =
	// 250 ps/B, about 4 GB/s of copy throughput.
	CostByteCopy4 = 1 * time.Nanosecond
)

// Phase is one accounted segment of a run (e.g. "preprocess",
// "iteration"). Compute and IO inside a phase are assumed to overlap
// perfectly, so the phase's wall time is max(Compute, IO).
type Phase struct {
	Name    string
	Compute time.Duration
	IO      time.Duration
}

// Wall returns the modeled wall time of the phase.
func (p Phase) Wall() time.Duration {
	if p.Compute > p.IO {
		return p.Compute
	}
	return p.IO
}

// Clock accumulates modeled compute and IO time, split into phases. The
// zero value is not usable; call NewClock. Clock is safe for concurrent
// use: engine pipelines charge compute from workers while the device
// charges IO.
type Clock struct {
	mu      sync.Mutex
	phases  []Phase
	current Phase
	open    bool
}

// NewClock returns a clock with one open phase named "run" so charges
// before the first explicit BeginPhase are still accounted.
func NewClock() *Clock {
	return &Clock{current: Phase{Name: "run"}, open: true}
}

// BeginPhase closes the current phase (if it accumulated any time) and
// opens a new one with the given name.
func (c *Clock) BeginPhase(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.open && (c.current.Compute > 0 || c.current.IO > 0) {
		c.phases = append(c.phases, c.current)
	}
	c.current = Phase{Name: name}
	c.open = true
}

// Compute charges d of compute time to the current phase.
func (c *Clock) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.current.Compute += d
	c.mu.Unlock()
}

// ComputeUnits charges n work units at cost per unit.
func (c *Clock) ComputeUnits(n int64, cost time.Duration) {
	if n <= 0 {
		return
	}
	c.Compute(time.Duration(n) * cost)
}

// ComputeBytes charges bulk byte-copy work for n bytes at CostByteCopy4
// per 4 bytes.
func (c *Clock) ComputeBytes(n int64) {
	c.ComputeUnits(n/4, CostByteCopy4)
}

// IO charges d of IO time to the current phase.
func (c *Clock) IO(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.current.IO += d
	c.mu.Unlock()
}

// Phases returns a copy of all phases, including the current one if it has
// accumulated time.
func (c *Clock) Phases() []Phase {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Phase, len(c.phases), len(c.phases)+1)
	copy(out, c.phases)
	if c.open && (c.current.Compute > 0 || c.current.IO > 0) {
		out = append(out, c.current)
	}
	return out
}

// Total returns the modeled runtime: the sum over phases of
// max(compute, io).
func (c *Clock) Total() time.Duration {
	var t time.Duration
	for _, p := range c.Phases() {
		t += p.Wall()
	}
	return t
}

// TotalCompute returns the summed compute time across phases.
func (c *Clock) TotalCompute() time.Duration {
	var t time.Duration
	for _, p := range c.Phases() {
		t += p.Compute
	}
	return t
}

// TotalIO returns the summed IO time across phases.
func (c *Clock) TotalIO() time.Duration {
	var t time.Duration
	for _, p := range c.Phases() {
		t += p.IO
	}
	return t
}

// String summarizes the clock for logs.
func (c *Clock) String() string {
	return fmt.Sprintf("sim.Clock{total=%v compute=%v io=%v phases=%d}",
		c.Total(), c.TotalCompute(), c.TotalIO(), len(c.Phases()))
}
