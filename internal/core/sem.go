package core

import "fmt"

// Semi-external-memory fast path (DESIGN.md §13).
//
// GraphMP's observation (PAPERS.md): when the vertex states fit in
// memory and only the edges stream from disk, a single machine rivals a
// small cluster. The partitioned engine routes every cross-partition
// message through MsgManager buffers and the spill/drain machinery even
// when the whole vertex-state array would comfortably fit the memory
// budget — paying per-iteration vertex-state round-trips, per-partition
// message files, and a drain stage that a resident-state run never
// needs.
//
// In SEM mode the engine pins the full vertex-state array resident for
// the whole run and applies every message inline at dispatch time, the
// moment Update sends it: there is exactly one partition covering the
// entire vertex space, so the ordered-dynamic-message branch of
// Engine.send covers every destination. No message buffers are allocated,
// no spill files are created, and the drain stage never runs — the
// adjacency still streams through Sio (v1 fixed-entry and v2
// block-encoded codecs alike) with selective scheduling and the
// parallel Worker intact.
//
// Equivalence comes in two strengths. Against a single-partition
// partitioned run the message routing is identical — every send was
// already inline — so the SEM result is identical in every observable:
// byte-identical states, same counters, same iteration count; the fast
// path only removes the per-iteration vertex-state round trip and the
// empty drain. Against a multi-partition run the converged states still
// match exactly (the fixpoint does not depend on partitioning), but SEM
// may converge in fewer iterations: a cross-partition message there
// waits for the next iteration's drain, while SEM folds it the moment
// it is sent, so information propagates at least as fast — the same
// reason the partitioned engine itself converges faster with fewer
// partitions.

// SemMode selects the semi-external-memory fast path.
type SemMode int

const (
	// SemAuto (the default) takes the fast path whenever the detection
	// holds: SemBudgetBytes(layout, vsize) fits MemoryBudget and
	// dynamic messages are on. Otherwise the engine partitions.
	SemAuto SemMode = iota
	// SemOn forces the fast path; New fails with ErrMemoryBudget when
	// the states cannot be pinned, or ErrInvalidOptions without
	// dynamic messages (SEM is inline apply; a static-message run has
	// nothing to apply inline).
	SemOn
	// SemOff never takes the fast path, even when everything fits —
	// the partitioned baseline the differential tests compare against.
	SemOff
)

func (m SemMode) String() string {
	switch m {
	case SemOn:
		return "on"
	case SemOff:
		return "off"
	default:
		return "auto"
	}
}

// ParseSemMode resolves a mode name ("auto", "on", "off"; "" means
// auto) — the spelling the -sem flag and the serving API accept.
func ParseSemMode(s string) (SemMode, error) {
	switch s {
	case "", "auto":
		return SemAuto, nil
	case "on", "true":
		return SemOn, nil
	case "off", "false":
		return SemOff, nil
	}
	return SemAuto, fmt.Errorf("%w: unknown sem mode %q (want auto, on, or off)", ErrInvalidOptions, s)
}

// semBitmapBytes is the resident cost of the per-vertex schedulability
// bitmap. It is charged in the SEM fit decision whether or not
// selective scheduling is on, so the decision — and with it the
// partitioning — never shifts between selective and full-streaming runs
// of the same budget (the comparability rule of New's bitmap comment).
func semBitmapBytes(n int) int64 {
	return int64((n + 63) / 64 * 8)
}

// SemBudgetBytes returns the smallest MemoryBudget at which an engine
// over layout with vsize-byte vertex states takes the semi-external-
// memory fast path: the full vertex-state array, the per-vertex active
// bitmap, the adjacency offset table, the resident index, and the
// Sio/Dispatcher pipeline buffers, all pinned at once. Callers sizing a
// SEM run (the serving admission control reserving a job's residency)
// use it as the floor a job budget must clear.
func SemBudgetBytes(l Layout, vsize int) int64 {
	n := l.NumVertices()
	return int64(n)*int64(vsize) + semBitmapBytes(n) +
		l.Adj().TableBytes() + l.IndexBytes() + pipelineOverheadBytes
}

// SemiExternal reports whether the engine took the semi-external-memory
// fast path (resolved at New).
func (e *Engine[V, M]) SemiExternal() bool { return e.sem }

// planSem resolves Options.SemiExternal against the budget. On the fast
// path the whole vertex space is one partition — partitionOf is the
// identity, send's inline branch covers every destination — and the
// planner's message-buffer arithmetic is skipped entirely: SEM
// allocates no buffers.
func (e *Engine[V, M]) planSem() (bool, error) {
	need := SemBudgetBytes(e.layout, e.vsize)
	switch e.opts.SemiExternal {
	case SemOff:
		return false, nil
	case SemOn:
		if !e.opts.DynamicMessages {
			return false, fmt.Errorf("%w: SemiExternal needs DynamicMessages (SEM applies every message inline)", ErrInvalidOptions)
		}
		if need > e.opts.MemoryBudget {
			return false, fmt.Errorf("%w: semi-external mode needs %d B resident (states+bitmap+table+index+pipeline), budget is %d B",
				ErrMemoryBudget, need, e.opts.MemoryBudget)
		}
		return true, nil
	default: // SemAuto
		return e.opts.DynamicMessages && need <= e.opts.MemoryBudget, nil
	}
}
