// Package core implements the GraphZ engine: an out-of-core,
// vertex-centric graph runtime with ordered dynamic messages (the paper's
// second contribution, Sections IV and V).
//
// The runtime divides the vertex space into partitions that fit the
// memory budget and, per iteration, per partition:
//
//  1. MsgManager loads the partition's vertex states and applies any
//     pending messages in their recorded order;
//  2. Sio streams the partition's adjacency blocks off the device on a
//     prefetch goroutine (a bounded queue, as in the paper);
//  3. the Dispatcher parses blocks into per-vertex adjacency lists;
//  4. the Worker calls update() on each vertex in ascending ID order and
//     intercepts every message it sends: a message whose destination is
//     in the resident partition is an ordered dynamic message, applied in
//     send order before any update can observe it — on the spot when one
//     partition holds every state, else from the resident partition's
//     buffer, drained in place ahead of the Worker; all others are
//     buffered per destination partition and spilled to the device.
//
// Execution is asynchronous (updates see the freshest values) yet
// deterministic: updates run in ID order and messages are applied in the
// order they were sent, so every run of a given program and graph
// performs the identical sequence of operations.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"graphz/internal/checkpoint"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// Program is the user-supplied algorithm in GraphZ's programming model
// (paper Algorithms 1-2): a vertex data type V, a message data type M, an
// update function, and the apply_message function that gives messages
// their dynamic behavior.
type Program[V, M any] interface {
	// Init produces the initial state of a vertex given its out-degree
	// (called once, on the first iteration).
	Init(id graph.VertexID, deg uint32) V
	// Update is called on every vertex every iteration, in ascending
	// ID order, with the vertex's out-neighbors. A program that scatters
	// one value to all of them says ctx.SendAll(adj, msg); one whose
	// message differs per edge writes them into ms := ctx.Messages(len(adj))
	// and says ctx.SendEach(adj, ms). Update is the one definition of the
	// update: a program's UpdateRun (RunUpdater) calls it and nothing else.
	Update(ctx *Context[M], id graph.VertexID, v *V, adj []graph.VertexID)
	// Apply folds a message into the destination vertex — the paper's
	// apply_message — and reports whether it changed it. A resident
	// destination's messages are applied in send order before any update
	// can observe them: before the destination's own update, at once when
	// an update sends to its own vertex, and before the partition's states
	// are stored. A non-resident one's are applied, in the same order, when
	// its partition is next loaded. Apply sees only its own vertex, so when
	// within those bounds it runs is the engine's choice (DESIGN.md §17).
	// Under selective scheduling a report of true makes the vertex
	// schedulable, and false leaves it as it was (FrontierSafe); true is
	// always safe, and a program that is never scheduled selectively
	// returns it.
	Apply(v *V, m M) bool
}

// BulkApplier is the optional fourth method of a Program: Apply, in a loop
// the compiler can inline it into. A program that scatters through
// Context.SendAll may add it, and the only body to give it is the delegate
//
//	func (p prog) ApplyAll(f *core.Frontier, verts []V, lo graph.VertexID, dsts []graph.VertexID, m M) int {
//		return core.ApplyAll(f, verts, lo, dsts, m, func(v *V, m M) bool { return p.Apply(v, m) })
//	}
//
// — a closure literal that calls Apply and nothing else, so Apply keeps its
// one definition. f is the bitmap of a selective run, nil otherwise; a
// program that does not declare FrontierSafe is never handed one and may
// pass nil in its place, which takes the mark out of the inlined loop. The
// method value form (core.ApplyAll(..., p.Apply)) compiles and runs
// correctly but is not inlined. New looks for the method once; a program
// without it runs the same loop over its Apply through a function value,
// one indirect call per message. It is the route of one partition under
// dynamic messages, where every destination is resident; a partitioned run
// applies records (RecordApplier). The engine checks the count an ApplyAll
// returns (ErrProgramContract).
type BulkApplier[V, M any] interface {
	ApplyAll(f *Frontier, verts []V, lo graph.VertexID, dsts []graph.VertexID, m M) int
}

// ApplyAll applies m, in list order, to every vertex of dsts that is
// resident — verts holds the states of vertices [lo, lo+len(verts)) — skips
// the others, marks in f each one whose apply reported a change (f is nil
// when the run is not scheduled selectively), and returns how many it
// applied. One unsigned compare covers both ends of the range. It is small
// enough to be inlined into a BulkApplier delegate, and with it the closure
// literal, the Apply the literal calls and the mark (ci/inlinecheck.sh
// asserts it).
func ApplyAll[V, M any](f *Frontier, verts []V, lo graph.VertexID, dsts []graph.VertexID, m M, apply func(*V, M) bool) (applied int) {
	for _, dst := range dsts {
		if i := uint(dst - lo); i < uint(len(verts)) {
			if apply(&verts[i], m) && f != nil {
				f.set(dst)
			}
			applied++
		}
	}
	return
}

// EachApplier is the optional per-edge form of BulkApplier: Apply over a
// list of destinations, each with its own message, in a loop the compiler
// can inline it into. A program that sends through Context.SendEach may add
// it, and the only body to give it is the delegate
//
//	func (p prog) ApplyEach(f *core.Frontier, verts []V, lo graph.VertexID, dsts []graph.VertexID, ms []M) int {
//		return core.ApplyEach(f, verts, lo, dsts, ms, func(v *V, m M) bool { return p.Apply(v, m) })
//	}
//
// — as with ApplyAll, a closure literal, not the method value. New looks for
// the method once; a program without it runs the same loop over its Apply
// through a function value. It is SendEach's route on one partition under
// dynamic messages, where every destination is resident, and the engine
// checks the count it returns (ErrProgramContract).
type EachApplier[V, M any] interface {
	ApplyEach(f *Frontier, verts []V, lo graph.VertexID, dsts []graph.VertexID, ms []M) int
}

// ApplyEach applies ms[k] to dsts[k], in list order, for every k whose
// destination is resident — verts holds the states of vertices [lo,
// lo+len(verts)) — skips the others, marks in f (nil when not selective)
// each one whose apply reported a change, and returns how many it applied.
// ms holds at least len(dsts) messages. Like ApplyAll it is small enough to
// be inlined into an EachApplier delegate, with the closure literal, the
// Apply the literal calls and the mark (ci/inlinecheck.sh asserts it).
func ApplyEach[V, M any](f *Frontier, verts []V, lo graph.VertexID, dsts []graph.VertexID, ms []M, apply func(*V, M) bool) (applied int) {
	for k, dst := range dsts {
		if i := uint(dst - lo); i < uint(len(verts)) {
			if apply(&verts[i], ms[k]) && f != nil {
				f.set(dst)
			}
			applied++
		}
	}
	return
}

// applyLoop is the BulkApplier, the EachApplier and the RecordApplier of a
// program that lacks its own: ApplyAll and ApplyEach over its Apply, and
// ApplyRecords over the message codec's Decode and its Apply, the function
// values bound once.
type applyLoop[V, M any] struct {
	apply  func(*V, M) bool
	decode func([]byte) M
}

func (a *applyLoop[V, M]) ApplyAll(f *Frontier, verts []V, lo graph.VertexID, dsts []graph.VertexID, m M) int {
	return ApplyAll(f, verts, lo, dsts, m, a.apply)
}

func (a *applyLoop[V, M]) ApplyEach(f *Frontier, verts []V, lo graph.VertexID, dsts []graph.VertexID, ms []M) int {
	return ApplyEach(f, verts, lo, dsts, ms, a.apply)
}

func (a *applyLoop[V, M]) ApplyRecords(verts []V, lo graph.VertexID, recs []byte, rec int) int {
	return ApplyRecords(verts, lo, recs, rec, a.decode, a.apply)
}

// RecordApplier is the optional records form of a Program: Apply over a
// run of buffered message records — a drain's, or on a partitioned run the
// resident partition's own, applied in place — in a loop the compiler can
// inline the message codec's Decode and the program's Apply into. The only body to
// give it is the delegate
//
//	func (p prog) ApplyRecords(verts []V, lo graph.VertexID, recs []byte, rec int) int {
//		return core.ApplyRecords(verts, lo, recs, rec, func(b []byte) M { return codec.Decode(b) }, func(v *V, m M) bool { return p.Apply(v, m) })
//	}
//
// where codec is the message codec the program is run with: two closure
// literals, so Decode and Apply each keep their one definition. New looks
// for the method once; a program without it runs the same loop over the
// codec's Decode and its Apply through function values. The engine checks
// the count an ApplyRecords returns (ErrProgramContract).
type RecordApplier[V, M any] interface {
	ApplyRecords(verts []V, lo graph.VertexID, recs []byte, rec int) int
}

// ApplyRecords applies a run of whole message records — each rec bytes,
// the destination's 4-byte little-endian ID, then the encoded message — in
// order to the resident destinations (verts holds the states of vertices
// [lo, lo+len(verts))), skips the others and returns how many it applied.
// decode is handed the bytes from the message on, and reads its codec's
// Size of them. Like ApplyAll it is small enough to be inlined into a
// RecordApplier delegate, with the two closure literals and what they call
// (ci/inlinecheck.sh asserts it). Unlike ApplyAll it marks nothing: with
// the mark the loop costs the inliner 108 of its 80 (go1.24.0), so the
// records route marks a destination when its record is delivered
// (drainRecords) or sent (sendRecords), whatever Apply reports — a
// superset of its reports, and so safe.
func ApplyRecords[V, M any](verts []V, lo graph.VertexID, recs []byte, rec int, decode func([]byte) M, apply func(*V, M) bool) (applied int) {
	for ; len(recs) >= rec; recs = recs[rec:] {
		if i := uint(graph.VertexID(binary.LittleEndian.Uint32(recs)) - lo); i < uint(len(verts)) {
			apply(&verts[i], decode(recs[4:]))
			applied++
		}
	}
	return
}

// RunUpdater is the optional run form of a Program: Update over a run of
// vertices that share one out-degree, in a loop the compiler can inline it
// into. Under DOS a degree run's vertices are consecutive and so are their
// adjacency lists (offset = first + (x − first)·deg), so the Worker hands
// over as many whole vertices of one run as its adjacency window holds and
// pays its per-vertex plumbing once a call. The only body to give it is the
// delegate
//
//	func (p prog) UpdateRun(ctx *core.Context[M], lo graph.VertexID, verts []V, adj []graph.VertexID, deg uint32) {
//		core.UpdateRun(ctx, lo, verts, adj, deg, func(ctx *core.Context[M], id graph.VertexID, v *V, a []graph.VertexID) { p.Update(ctx, id, v, a) })
//	}
//
// — a closure literal that calls Update and nothing else, so Update keeps
// its one definition. New looks for the method once. The Worker takes the
// run route on every pass that needs no hook between two updates: not
// scheduled selectively and not on the in-place route — one partition
// under dynamic messages, and static messages. A selective pass clears and
// sets each vertex's bit around its update, and the in-place route drains
// the resident records before the update of a vertex that has one pending
// and moves the cursor scatter reads: those passes, and every program
// without the method, update a vertex a call. A FrontierSafe program is
// scheduled on every run but one that pins Options.StreamAdjacency, so
// only such a run would reach its method: the shipped ones have none
// (ci/inlinecheck.sh fails one that defines both).
type RunUpdater[V, M any] interface {
	UpdateRun(ctx *Context[M], lo graph.VertexID, verts []V, adj []graph.VertexID, deg uint32)
}

// UpdateRun updates verts — the states of vertices [lo, lo+len(verts)), all
// of out-degree deg — in ascending ID order, handing each its deg entries of
// adj, which holds exactly len(verts)·deg of them, the vertices' adjacency
// lists back to back. It is small enough to be inlined into a RunUpdater
// delegate, with the closure literal and the Update the literal calls
// (ci/inlinecheck.sh asserts the first two).
func UpdateRun[V, M any](ctx *Context[M], lo graph.VertexID, verts []V, adj []graph.VertexID, deg uint32, update func(*Context[M], graph.VertexID, *V, []graph.VertexID)) {
	d := int(deg)
	for i := range verts {
		update(ctx, lo+graph.VertexID(i), &verts[i], adj[:d:d])
		adj = adj[d:]
	}
}

// FrontierSafe is the optional marker of a Program that is scheduled
// selectively: the engine keeps a bit per vertex, reads only the blocks
// (and loads only the partitions) that hold a set bit or a pending message,
// and updates only the vertices whose bit is set (DESIGN.md §9;
// Result.BlocksScanned/BlocksSkipped count it). Declaring it promises that
// Update on a vertex no message changed since its last update — no Apply on
// it reported true — changes nothing and sends nothing; a program that
// wants a vertex updated next iteration anyway calls MarkActive on it. The
// engine then skips such updates and the blocks only they would read (a
// message that reaches a vertex without changing it schedules nothing), and,
// where Apply does not depend on the order messages arrive in (BFS's, CC's
// and SSSP's minima), the final states are byte-identical to a
// full-streaming run's; iteration, update and message counts may differ,
// since a skipped vertex's propagation can shift by an iteration. A program
// whose Update acts unprompted — PageRank re-sending its rank every round —
// must not declare it: its unscheduled vertices would silently stop
// contributing. An undeclared program is never scheduled selectively, a
// declared one on every run that does not pin Options.StreamAdjacency.
//
// InitialFrontier says which vertices have work right after Init, the same
// promise for iteration 0: nil is every vertex, a list — BFS's and SSSP's
// source — the listed ones. Iteration 0 is an ordinary frontier iteration
// either way: a vertex's bit is cleared before its update there too, so an
// update that does not act on a message already applied to its vertex —
// CC's iteration 0 broadcasts its own label — calls MarkActive to keep the
// vertex scheduled.
// Every state is still initialized, and IDs past the last vertex, which no
// update can reach, are ignored.
type FrontierSafe interface {
	InitialFrontier() []graph.VertexID
}

// Context is the per-update view of the runtime handed to Program.Update.
// An engine has one, its routes bound in New.
type Context[M any] struct {
	iteration int
	send      func(dst graph.VertexID, m M)
	sendAll   func(dsts []graph.VertexID, m M)    // the bulk route
	sendEach  func(dsts []graph.VertexID, ms []M) // the per-edge bulk route
	msgs      []M                                 // Messages' scratch
	active    bool                                // an update called MarkActive since the Worker last cleared it
}

// Iteration returns the current iteration number (0-based).
func (c *Context[M]) Iteration() int { return c.iteration }

// Send sends an ordered dynamic message to dst: dst's messages are applied
// in send order, a resident dst's before any update can observe them — its
// own, or this one's when dst is the vertex being updated (Program.Apply).
// An update that sends to its whole adjacency says SendAll or SendEach
// instead; Send is for the program that picks its destinations (a random
// walk) or sends what an Apply during the sends may change.
func (c *Context[M]) Send(dst graph.VertexID, m M) { c.send(dst, m) }

// SendAll sends m to every vertex of dsts, in order: it is Send in a loop
// — every destination sees the same applies in the same sequence, under
// the same guarantee, the device the same operations, the counters the
// same totals — handed to the engine as one call per vertex instead of one
// per edge. Use it when an update scatters one value over its adjacency
// (ctx.SendAll(adj, msg)); keep Send when the message differs from edge to
// edge. A program that also has the BulkApplier and RecordApplier
// delegates gets its Apply inlined into both routes: no call per message
// at all. dsts is not retained.
func (c *Context[M]) SendAll(dsts []graph.VertexID, m M) { c.sendAll(dsts, m) }

// SendEach sends ms[i] to dsts[i] for every i, in order: it is Send in a
// loop — under the same guarantee, with the same ledger totals and the same
// device operations — handed to the engine as one call per vertex instead
// of one per edge. Use it when the message differs from edge to edge and no
// Apply during the sends can change it: the update computes every message
// first, into Messages' scratch. On one partition a program that also has
// the EachApplier delegate gets its Apply inlined: no call per message.
// ms must hold exactly len(dsts) messages; otherwise nothing is sent and
// the run fails at the next partition boundary (ErrProgramContract).
// Neither slice is retained.
func (c *Context[M]) SendEach(dsts []graph.VertexID, ms []M) { c.sendEach(dsts, ms) }

// Messages returns a scratch slice of n messages for SendEach, owned by the
// Context and reused from update to update: it is valid until the next
// call, and holds whatever the last user left in it. It grows by doubling,
// so a run whose degrees climb allocates a few times, not once a degree.
func (c *Context[M]) Messages(n int) []M {
	if cap(c.msgs) < n {
		c.msgs = make([]M, max(n, 2*cap(c.msgs)))
	}
	return c.msgs[:n]
}

// MarkActive signals that the vertex's value changed this iteration;
// the engine keeps iterating while any vertex is active or any message
// flows. Under selective scheduling it also keeps the vertex
// schedulable for the next iteration. A FrontierSafe program whose
// lowered vertex sends needs neither: the sends keep the run going, a
// message that changes a vertex schedules it, and a vertex that sends
// nothing has no work left.
func (c *Context[M]) MarkActive() { c.active = true }

// Options configures an engine run.
type Options struct {
	// MemoryBudget bounds the engine-resident bytes: vertex index,
	// partition vertex states, message buffers, pipeline blocks, and the
	// decoded adjacency when what those leave holds it (StreamAdjacency).
	MemoryBudget int64
	// Context, when non-nil, makes the run cancellable: the engine
	// checks it at every partition boundary (and before the run starts)
	// and aborts with an error matching both ErrCancelled and the
	// context's own cause. A cancelled run leaves its runtime files on
	// the device; call Cleanup to drop them.
	Context context.Context
	// SharedAdjacency serves the adjacency from a resident decoded-entry
	// cache shared with other engines (created via NewSharedGraph /
	// NewSharedAdjacency, typically by a serving process). The engine
	// uses it as is, whatever its own budget would have decided, and it is
	// NOT charged against this engine's MemoryBudget — the cache's owner
	// accounts for SharedAdjacency.Bytes once, instead of every job paying
	// (and re-reading) it. New fails with ErrInvalidOptions if the cache
	// does not belong to the layout's edges file.
	SharedAdjacency *SharedAdjacency
	// MaxIterations stops the run after this many iterations; 0 means
	// run until convergence (no activity and no messages).
	MaxIterations int
	// Clock receives compute charges; nil disables accounting.
	Clock *sim.Clock
	// DynamicMessages enables the paper's ordered dynamic messages
	// (apply in-partition messages within the pass that sends them,
	// before any update can observe them). When false — the
	// Figure 7 "without DM" ablation — every message is spilled to the
	// message store and applied on the destination partition's next
	// load, like a static-message system.
	DynamicMessages bool
	// MsgBufferBytes is the in-memory buffer per destination partition
	// before spilling; defaults to 64 KiB.
	MsgBufferBytes int
	// StreamAdjacency pins the paper's engine (§VI-E): it re-reads the
	// whole edges file every iteration, whatever the budget leaves, and
	// schedules no vertex selectively, so no block is skipped either. Left
	// false, the planner keeps the decoded adjacency resident after one
	// pass whenever 4 bytes per edge fit beside everything else the budget
	// pays for (Result.ResidentAdjacency says which it was), and a program
	// that declares FrontierSafe is scheduled selectively. It pins the
	// engine for the paper's tables and for tests of the streaming
	// pipeline, as DynamicMessages pins Figure 7's; no binary exposes it.
	StreamAdjacency bool
	// Deprecated: ignored; selective scheduling is the program's to declare
	// (FrontierSafe). It stays until the repository benchmark stops setting it.
	SelectiveScheduling bool
	// Name prefixes the engine's runtime files on the device; defaults
	// to "graphz".
	Name string
	// Checkpoint enables iteration-boundary checkpoint/restore: with a
	// non-empty Dir the engine atomically persists vertex states,
	// pending messages, and counters to the host filesystem after
	// configured iterations, and Run with Checkpoint.Resume continues a
	// crashed run from the last complete checkpoint — byte-identical to an
	// uninterrupted run (docs/DURABILITY.md).
	Checkpoint CheckpointOptions
	// Obs receives the engine's runtime metrics: message-routing
	// counters, per-stage timings, and one IterStats row per iteration.
	// Nil disables collection entirely — the no-op fast path.
	Obs *obs.Registry
	// Trace receives one JSONL span per (iteration, partition, stage)
	// with stage ∈ {sio, dispatch, worker, drain}. Nil disables tracing.
	Trace *obs.Tracer
}

// DefaultOptions returns the standard configuration (dynamic messages on).
func DefaultOptions(budget int64) Options {
	return Options{MemoryBudget: budget, DynamicMessages: true}
}

// ErrMemoryBudget reports that a resident structure cannot fit the memory
// budget — the failure mode that stops index-heavy systems on the xlarge
// graph in the paper's Figure 5.
var ErrMemoryBudget = errors.New("core: memory budget exceeded")

// ErrInvalidOptions reports a configuration New rejects outright — a
// non-positive budget, or a shared adjacency that belongs to a different
// graph. It marks errors a caller caused (a serving API maps it to
// HTTP 400), as opposed to runtime failures. Match with errors.Is.
var ErrInvalidOptions = errors.New("core: invalid options")

// ErrProgramContract reports a program that broke a rule the engine relies
// on and can check: a BulkApplier or EachApplier whose ApplyAll or
// ApplyEach returned a count other than the number of destinations it was
// handed (on one partition every one is resident), a RecordApplier whose
// ApplyRecords applied other than every record of a drain or of the
// resident partition's in-place flush, or a SendEach whose messages do not
// match its destinations one for one. The ledger (inline + buffered ==
// sent) would otherwise go quietly wrong, or a send panic, so the run fails
// at the next partition boundary and returns no Result. Match with
// errors.Is.
var ErrProgramContract = errors.New("core: program contract violated")

// ErrCancelled reports a run aborted because Options.Context was
// cancelled. The returned error also matches the context's own error
// (context.Canceled or context.DeadlineExceeded) via errors.Is.
var ErrCancelled = errors.New("core: run cancelled")

// pipelineOverheadBytes approximates the fixed buffers of the
// Sio/Dispatcher pipeline (prefetch blocks and staging).
const pipelineOverheadBytes = (sioQueueDepth + 2) * storage.DefaultBlockSize

// sioQueueDepth is the bounded-queue capacity between Sio and the Worker.
const sioQueueDepth = 4

// maxPartitions caps partitioning; a budget demanding more partitions
// than this is treated as infeasible.
const maxPartitions = 65536

// Result summarizes a finished run. It stays comparable (no slices): the
// per-iteration breakdown lives in the attached obs.Registry.
type Result struct {
	Iterations int
	Partitions int
	// SemiExternal reports the semi-external case (DESIGN.md §13): the
	// budget planned one partition, so the vertex states stayed pinned in
	// memory for the whole run. With DynamicMessages every message was
	// applied inline — MessagesBuffered and MessagesSpilled are 0.
	SemiExternal bool
	// ResidentAdjacency reports that Update was fed from the decoded
	// adjacency held in memory — the budget left 4 bytes per edge beside
	// the plan, or a SharedAdjacency was handed in — so a process read the
	// edges file at most once, for the fill. False: it streamed off the
	// device every iteration.
	ResidentAdjacency bool
	MessagesSent      int64
	MessagesApplied   int64
	MessagesInline    int64 // to the resident partition: ordered dynamic messages, applied in memory
	MessagesBuffered  int64 // queued for a non-resident destination
	MessagesSpilled   int64 // messages that crossed the partition boundary to disk
	SpillErrors       int64 // spill failures observed (first one aborts the run)
	UpdatesRun        int64
	// BlocksScanned/BlocksSkipped count adjacency blocks the selective
	// scheduler read versus skipped: both zero unless the run was scheduled
	// selectively, and then (on a graph with an edge) their sum is not.
	// They count the schedule's blocks, not device reads: on a resident
	// adjacency every block was read once, by the fill, whatever they say.
	BlocksScanned int64
	BlocksSkipped int64
	// Checkpoints counts the snapshots written this run;
	// CheckpointBytes and CheckpointTime are their total size and
	// wall-clock cost. All zero unless Options.Checkpoint is enabled.
	Checkpoints     int64
	CheckpointBytes int64
	CheckpointTime  time.Duration
	// CodecBytesRaw/CodecBytesEncoded compare decoded adjacency bytes
	// produced against encoded bytes read off the device, and DecodeTime
	// is the wall clock spent decoding. All zero on fixed-entry layouts
	// (DOS v1, CSR) and, like Stages, populated only when Options.Obs or
	// Options.Trace is set.
	CodecBytesRaw     int64
	CodecBytesEncoded int64
	DecodeTime        time.Duration
	// Stages is wall-clock time per pipeline stage, summed over the
	// run; populated only when Options.Obs or Options.Trace is set.
	Stages obs.StageTimes
}

// Engine runs one Program over one Layout. Create with New, run with Run,
// read results with Values (map them to input IDs with Layout.NewToOld).
type Engine[V, M any] struct {
	layout Layout
	prog   Program[V, M]
	bulk   BulkApplier[V, M] // prog's own ApplyAll, or applyLoop's
	each   EachApplier[V, M] // prog's own ApplyEach, or applyLoop's
	runs   RunUpdater[V, M]  // prog's own UpdateRun; nil updates a vertex a call
	mcodec graph.Codec[M]
	states graph.BulkCodec[V] // the state codec's own bulk form, or its per-value loop
	vstate graph.StateFile[V] // the vertex-state file, coded by states
	opts   Options

	dev      *storage.Device
	adj      storage.BlockLayout // how the edges file maps entries to bytes
	parts    split               // partition p covers [parts.starts[p], parts.starts[p+1])
	msgFiles []string            // partition p's message store on the device
	vsize    int
	msize    int

	// per-run state
	verts    []V // states of the resident partition, [partLo, partHi)
	partLo   graph.VertexID
	partHi   graph.VertexID
	adjCache *SharedAdjacency // adjacency cache, shared or private; nil streams from the device
	resident memEntryStream   // the cache's whole-file entries, once filled
	msgBufs  [][]byte
	active   bool
	finished bool
	// runErr is the first deferred error, returned at the next partition
	// boundary: a failed spill, or a program contract breach
	// (ErrProgramContract) — an ApplyAll, ApplyEach or ApplyRecords whose
	// count does not hold, a destination past the last vertex, or a
	// SendEach whose messages do not match its destinations.
	runErr    error
	c         counters // the ledger: every cumulative count, one writer each
	published counters // c as of the last publish

	// ctx is the Context every Worker pass hands its updates, its routes
	// bound once in New: Send's is e.send; SendAll's and SendEach's are the
	// resident appliers on the spot (onSpot) and e.sendRecords and
	// e.sendEach elsewhere. rangeBuf is the entry-range list updateRuns
	// opens its prefetcher over, reused across passes.
	ctx      Context[M]
	rangeBuf []entryRange

	// convergeOnInactivity stops the run as soon as an iteration ends with
	// no vertex marked active, even if messages were sent. It is a property
	// of the Section IV-E emulation, its only setter (EmulateGraphChi, after
	// New): that program re-sends unchanged state every round and its
	// updates are deterministic in (value, in-edges), so an inactive round
	// can only be followed by inactive rounds.
	convergeOnInactivity bool

	// selective scheduling state (FrontierSafe)
	sel     *Frontier  // per-vertex schedulability bits; nil when off
	planner selPlanner // schedule scratch, reused across partitions and iterations

	// durability state (Options.Checkpoint)
	ckStore    *checkpoint.Store
	layoutHash uint64

	eo engineObs

	// The buffered path's state, kept behind the fields the inline path
	// reads per message. enc holds the message a buffer pass is scattering,
	// encoded once. records is prog's own ApplyRecords, or applyLoop's.
	// staging is the one byte buffer the MsgManager moves device blocks
	// through: a partition's encoded states on load and store, the spill
	// file's blocks in the drain between them — never two at once.
	enc     []byte
	records RecordApplier[V, M]
	staging []byte

	// The route (DESIGN.md §17). onSpot is one partition under dynamic
	// messages: SendAll applies through the BulkApplier as it is called
	// (applyOnSpot).
	// Every other run sends records. On a partitioned run under dynamic
	// messages resPart is the partition the Worker is in: scatter writes
	// its records into msgBufs[resPart] like any other partition's, and
	// applyResident applies them there, never spilled — when the Worker's
	// cursor reaches wm, the smallest pending destination at or after it
	// (partHi while none is); at once when wm is the cursor, a record
	// addressing the vertex being updated; when the buffer fills; and at
	// the end of the pass. Elsewhere resPart is -1 and wm an ID no vertex
	// reaches.
	onSpot  bool
	resPart int
	cursor  graph.VertexID
	wm      graph.VertexID
}

// New validates the configuration and plans the partitioning. It returns
// ErrMemoryBudget if the vertex index or a single partition cannot fit.
func New[V, M any](layout Layout, prog Program[V, M], vcodec graph.Codec[V], mcodec graph.Codec[M], opts Options) (*Engine[V, M], error) {
	if opts.Name == "" {
		opts.Name = "graphz"
	}
	if opts.MsgBufferBytes <= 0 {
		opts.MsgBufferBytes = 64 * 1024
	}
	// A buffer must hold at least a few records.
	if minBuf := 4 * (4 + mcodec.Size()); opts.MsgBufferBytes < minBuf {
		opts.MsgBufferBytes = minBuf
	}
	if opts.MemoryBudget <= 0 {
		return nil, fmt.Errorf("%w: memory budget must be positive, got %d", ErrInvalidOptions, opts.MemoryBudget)
	}
	e := &Engine[V, M]{
		layout: layout,
		prog:   prog,
		mcodec: mcodec,
		opts:   opts,
		dev:    layout.Device(),
		adj:    layout.Adj(),
		states: graph.Bulk(vcodec),
		vstate: graph.NewStateFile(layout.Device(), opts.Name+".vstate", vcodec, opts.Clock),
		vsize:  vcodec.Size(),
		msize:  mcodec.Size(),
		eo:     newEngineObs(opts.Obs, opts.Trace),
	}
	e.bulk, _ = any(prog).(BulkApplier[V, M])
	e.each, _ = any(prog).(EachApplier[V, M])
	e.runs, _ = any(prog).(RunUpdater[V, M])
	e.records, _ = any(prog).(RecordApplier[V, M])
	if e.bulk == nil || e.each == nil || e.records == nil {
		loop := &applyLoop[V, M]{prog.Apply, mcodec.Decode}
		if e.bulk == nil {
			e.bulk = loop
		}
		if e.each == nil {
			e.each = loop
		}
		if e.records == nil {
			e.records = loop
		}
	}
	if opts.SharedAdjacency != nil && !opts.SharedAdjacency.matches(layout) {
		return nil, fmt.Errorf("%w: shared adjacency belongs to %q (%d entries), layout reads %q (%d entries)",
			ErrInvalidOptions, opts.SharedAdjacency.file, opts.SharedAdjacency.entries,
			layout.EdgesFile(), layout.NumEdges())
	}
	if err := e.plan(); err != nil {
		return nil, err
	}
	e.onSpot = opts.DynamicMessages && e.SemiExternal()
	e.ctx.send = e.send
	if e.onSpot {
		e.ctx.sendAll, e.ctx.sendEach = e.applyOnSpot(), e.applyEachOnSpot()
	} else {
		e.ctx.sendAll, e.ctx.sendEach = e.sendRecords, e.sendEach
	}
	e.resPart, e.wm = -1, math.MaxUint32
	if fs, ok := any(prog).(FrontierSafe); ok && !opts.StreamAdjacency {
		// One bit per vertex (1/32 of a minimal uint32 state), and a
		// summary bit per 64 of them. It is deliberately NOT
		// budget-accounted by plan, in the partition count or in the
		// adjacency fit: charging it would shift partition boundaries, or
		// the adjacency's residency, between selective and full-streaming
		// runs of the same budget, breaking their comparability.
		n := layout.NumVertices()
		if initial := fs.InitialFrontier(); initial == nil {
			e.sel = newActiveSet(n)
		} else {
			e.sel = newEmptyActiveSet(n)
			for _, v := range initial {
				if int(v) < n {
					e.sel.set(v)
				}
			}
		}
	}
	return e, nil
}

// residentFloor is the budget-accounted memory every run holds whatever
// its partitioning: the vertex index, a block-encoded layout's per-block
// offset table (zero for fixed-entry layouts) and the pipeline buffers.
// The planner's two decisions and the memory sampler all start from it.
func (e *Engine[V, M]) residentFloor() obs.MemSample {
	return obs.MemSample{
		IndexBytes:    e.layout.IndexBytes(),
		TableBytes:    e.adj.TableBytes(),
		PipelineBytes: pipelineOverheadBytes,
	}
}

// plan chooses the partition count: the smallest P such that the index,
// pipeline buffers, P message buffers, and one partition's vertex states
// fit the budget, then splits the vertex space evenly. It is the only
// place residency is decided, the vertex states' first — when P comes out
// as 1 the run is the semi-external case (SemiExternal) — and then the
// adjacency's: it stays resident, decoded, when 4 bytes per edge fit beside
// all of that and the largest partition's states (ResidentAdjacency). A
// handed-in SharedAdjacency is used as is: its owner pays for it.
func (e *Engine[V, M]) plan() error {
	n := int64(e.layout.NumVertices())
	vertexBytes := n * int64(e.vsize)
	fixed := e.residentFloor().ResidentBytes()
	p := int64(1)
	for {
		avail := e.opts.MemoryBudget - fixed - p*int64(e.opts.MsgBufferBytes)
		if avail <= 0 {
			return fmt.Errorf("%w: index (%d B) and buffers exceed budget %d B",
				ErrMemoryBudget, e.layout.IndexBytes(), e.opts.MemoryBudget)
		}
		// In whole states: the largest of p even partitions holds ⌈n/p⌉
		// vertices, which n·vsize/p bytes undercount when p does not
		// divide n.
		need := int64(1)
		if vertexBytes > 0 {
			need = maxPartitions + 1 // not one state fits
			if perPart := avail / int64(e.vsize); perPart > 0 {
				need = (n + perPart - 1) / perPart
			}
		}
		if need <= p {
			break
		}
		p = need
		if p > maxPartitions {
			return fmt.Errorf("%w: %d vertices of %d B need more than %d partitions",
				ErrMemoryBudget, n, e.vsize, maxPartitions)
		}
	}
	e.parts = newSplit(n, p)
	// Named once: every iteration looks each store's size up, and a run
	// with nothing pending must not pay an allocation per lookup.
	e.msgFiles = make([]string, p)
	for i := range e.msgFiles {
		e.msgFiles[i] = fmt.Sprintf("%s.msgs.%d", e.opts.Name, i)
	}
	// An even split's largest partition holds ⌈n/p⌉ vertices.
	used := fixed + p*int64(e.opts.MsgBufferBytes) + (n+p-1)/p*int64(e.vsize)
	switch {
	case e.opts.SharedAdjacency != nil:
		e.adjCache = e.opts.SharedAdjacency
	case !e.opts.StreamAdjacency && used+e.layout.NumEdges()*4 <= e.opts.MemoryBudget:
		e.adjCache = NewSharedAdjacency(e.layout)
	}
	return nil
}

// split is an even division of the vertex IDs [0, n) into P partitions,
// partition p covering [starts[p], starts[p+1]), and scale, partitionOf's
// fixed-point multiplier ⌊2^32·P/n⌋. It is a slice and a word, 32 bytes,
// so the compiler keeps a local copy's fields as values of their own; a
// bigger struct is copied at every inlined partitionOf call.
type split struct {
	starts []graph.VertexID
	scale  uint64
}

// newSplit divides n vertices evenly into p partitions: starts[i] = ⌊i·n/p⌋.
// For v ≤ n−1 the product v·scale stays below 2^32·p ≤ 2^48, and its high
// part is ⌊v·p/n⌋ or one less.
func newSplit(n, p int64) split {
	s := split{starts: make([]graph.VertexID, p+1)}
	for i := int64(0); i <= p; i++ {
		s.starts[i] = graph.VertexID(i * n / p)
	}
	if n > 0 {
		s.scale = uint64(p) << 32 / uint64(n)
	}
	return s
}

// NumPartitions returns the planned partition count.
func (e *Engine[V, M]) NumPartitions() int { return len(e.parts.starts) - 1 }

// SemiExternal reports the one-partition case (resolved at New): the whole
// vertex-state array fits the budget, so it is loaded once, stays pinned in
// memory for the run and is flushed once at the end, while the adjacency
// still streams. With DynamicMessages every send is then inline — GraphMP's
// semi-external model (DESIGN.md §13).
func (e *Engine[V, M]) SemiExternal() bool { return e.NumPartitions() == 1 }

// pinned reports that e.verts is the authoritative copy of every vertex
// state: the one-partition case, once its partition has been loaded. The
// vertex-state file is then stale until the final flush.
func (e *Engine[V, M]) pinned() bool { return e.SemiExternal() && e.verts != nil }

// partitionOf returns the partition that holds vertex v, and the last
// partition for an ID past the last vertex: that message fails its drain
// typed (ErrProgramContract), as any record its partition does not hold
// does. Partitions are an even split, so this is arithmetic, not search —
// and fixed-point arithmetic, not a divide per message. The ID is clamped
// first, so the estimate d·scale >> 32 is ⌊d·P/n⌋ or one below it, never
// above d's partition: one loop climbs from it, 0–2 steps (more only across
// the empty partitions of a split with more partitions than vertices), and
// it stops at partition P−1 at the latest, whose end n is above d. With no
// vertex there is no partition to route to, and no update sends.
func (s split) partitionOf(v graph.VertexID) int {
	d := min(v, s.starts[len(s.starts)-1]-1)
	i := int(uint64(d) * s.scale >> 32)
	for d >= s.starts[i+1] {
		i++
	}
	return i
}

func (e *Engine[V, M]) vstateFile() string { return e.vstate.Name() }

func (e *Engine[V, M]) msgFile(p int) string { return e.msgFiles[p] }

// chargeLedger charges the modeled clock for the messages, updates and
// adjacency entries the ledger gained since before, and for the bytes of
// the records it buffered (a record is copied in 4-byte units, as
// Clock.ComputeBytes prices one). Modeled compute is a view of the ledger
// like every other report of those counts: the hot paths only count, and
// one partition's work is priced here in one charge — the same integer sum
// the per-event charges came to.
func (e *Engine[V, M]) chargeLedger(before *counters) {
	e.opts.Clock.Compute(time.Duration(e.c.Sent-before.Sent)*sim.CostMessageSend +
		time.Duration(e.c.Applied-before.Applied)*sim.CostMessageApply +
		time.Duration(e.c.Updates-before.Updates)*sim.CostVertexUpdate +
		time.Duration(e.c.edges-before.edges)*sim.CostEdgeScan +
		time.Duration((e.c.Buffered-before.Buffered)*int64((4+e.msize)/4))*sim.CostByteCopy4)
}

// Run executes the program to convergence or MaxIterations and leaves the
// final vertex states in the engine's vertex-state file. With
// Options.Checkpoint.Resume set and a complete checkpoint present in
// Options.Checkpoint.Dir, Run continues from it instead of starting over
// (resume).
func (e *Engine[V, M]) Run() (Result, error) {
	if e.finished {
		return Result{}, fmt.Errorf("core: engine already ran; create a new one")
	}
	if err := e.ctxErr(); err != nil {
		return Result{}, err
	}
	if err := e.layout.LoadIndex(); err != nil {
		return Result{}, err
	}
	if err := e.initCheckpointing(); err != nil {
		return Result{}, err
	}
	if e.opts.Checkpoint.Resume && e.ckStore != nil && e.ckStore.HasCheckpoint() {
		return e.resume()
	}
	nParts := e.NumPartitions()
	e.makeMsgBufs()
	if _, err := e.dev.Create(e.vstateFile()); err != nil {
		return Result{}, err
	}
	for p := 0; p < nParts; p++ {
		if _, err := e.dev.Create(e.msgFile(p)); err != nil {
			return Result{}, err
		}
	}
	return e.loop(0)
}

// loop runs iterations starting at startIter (iterations already
// completed by a restored checkpoint) until convergence or
// MaxIterations, checkpointing at the configured boundaries.
func (e *Engine[V, M]) loop(startIter int) (Result, error) {
	defer e.publish()
	nParts := e.NumPartitions()
	iters := startIter
	for {
		e.opts.Clock.BeginIteration(iters)
		e.active = false
		before := e.c
		var pendingBefore int64
		for p := 0; p < nParts; p++ {
			pend, err := e.pendingBytes(p)
			if err != nil {
				return Result{}, err
			}
			pendingBefore += pend
		}
		var devBefore storage.Stats
		if e.eo.On {
			devBefore = e.dev.Stats()
		}
		err := e.runIteration(iters)
		if e.eo.On {
			e.recordIter(iters, before, devBefore)
		}
		if err != nil {
			return Result{}, err
		}
		iters++
		// Done on MaxIterations, or converged: nothing changed, nothing
		// was sent this iteration, and nothing was pending from before —
		// or, under convergeOnInactivity, as soon as nothing changed.
		done := e.opts.MaxIterations > 0 && iters >= e.opts.MaxIterations
		if !done && !e.active && (e.convergeOnInactivity ||
			(e.c.Sent == before.Sent && pendingBefore == 0)) {
			done = true
		}
		// Checkpoint at the iteration boundary: on cadence (absolute
		// iteration count, so a resumed run checkpoints at the same
		// boundaries as an uninterrupted one) and always at the end, so
		// a converged run leaves a final restorable snapshot.
		if e.ckStore != nil && (done || iters%e.opts.Checkpoint.every() == 0) {
			if err := e.writeCheckpoint(iters, done); err != nil {
				return Result{}, err
			}
		}
		if done {
			break
		}
	}
	if e.pinned() {
		// The states stayed pinned all run; one flush makes them durable
		// for Values (and leaves the vstate file exactly as a run that
		// stored them every iteration would).
		if err := e.storeVertices(e.partLo, e.partHi); err != nil {
			return Result{}, err
		}
	}
	return e.finish(iters), nil
}

// runIteration runs every partition once; after each, what the ledger
// gained is charged to the modeled clock and published.
func (e *Engine[V, M]) runIteration(iter int) error {
	for p := 0; p < e.NumPartitions(); p++ {
		// Cancellation is honored at partition boundaries: the
		// per-run state is never left mid-partition, so a cancelled
		// job's budget can be released immediately and its files
		// removed without draining anything.
		if err := e.ctxErr(); err != nil {
			return err
		}
		before := e.c
		err := e.runPartition(p, iter)
		e.chargeLedger(&before)
		e.publish()
		// A deferred spill failure predates whatever the partition
		// tripped over afterwards (often a knock-on effect of the
		// same full device), so it takes precedence.
		if e.runErr != nil {
			return e.wrapRunErr()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// finish marks the run (fresh, resumed, or restored already converged)
// complete: the message stores are deleted — the vertex states remain for
// Values; removal failures don't fail the run, the results are already
// durable, but they are counted — and the Result is projected from the
// ledger.
func (e *Engine[V, M]) finish(iters int) Result {
	e.finished = true
	e.removeFiles(e.msgFiles...)
	if e.SemiExternal() {
		e.eo.semRuns.Inc()
	}
	return Result{
		Iterations:        iters,
		Partitions:        e.NumPartitions(),
		SemiExternal:      e.SemiExternal(),
		ResidentAdjacency: e.adjCache != nil,
		MessagesSent:      e.c.Sent,
		MessagesApplied:   e.c.Applied,
		MessagesInline:    e.c.Inline,
		MessagesBuffered:  e.c.Buffered,
		MessagesSpilled:   e.c.Spilled,
		SpillErrors:       e.c.spillErrs,
		UpdatesRun:        e.c.Updates,
		BlocksScanned:     e.c.BlocksScanned,
		BlocksSkipped:     e.c.BlocksSkipped,
		Checkpoints:       e.c.ckpts,
		CheckpointBytes:   e.c.ckptBytes,
		CheckpointTime:    time.Duration(e.c.ckptNS),
		CodecBytesRaw:     e.c.codecRawBytes,
		CodecBytesEncoded: e.c.codecEncBytes,
		DecodeTime:        time.Duration(e.c.codecDecodeNS),
		Stages:            e.eo.Run,
	}
}

// ctxErr reports cancellation of the run's context: nil while the run
// may continue, an error matching both ErrCancelled and the context's
// cause once Options.Context is done.
func (e *Engine[V, M]) ctxErr() error {
	ctx := e.opts.Context
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", ErrCancelled, context.Cause(ctx))
	default:
		return nil
	}
}

// wrapRunErr returns the first spill error, annotated with how many later
// spill failures were dropped behind it. The first failure is runErr
// itself, so spillErrs-1 were dropped. The %w keeps errors.Is working on
// the original cause.
func (e *Engine[V, M]) wrapRunErr() error {
	dropped := e.c.spillErrs - 1
	if errors.Is(e.runErr, ErrProgramContract) {
		dropped++ // runErr is not itself a spill failure
	}
	if dropped <= 0 {
		return e.runErr
	}
	noun := "errors"
	if dropped == 1 {
		noun = "error"
	}
	return fmt.Errorf("%w (%d later spill %s dropped)", e.runErr, dropped, noun)
}

// runPartition processes one partition for one iteration.
func (e *Engine[V, M]) runPartition(p, iter int) error {
	lo, hi := e.parts.starts[p], e.parts.starts[p+1]
	if lo == hi {
		return nil
	}
	start := e.layout.OffsetOf(lo)
	end := endOffset(e.layout, hi)

	// Selective scheduling: a partition with no schedulable vertex and
	// no pending message cannot change any state this iteration — skip
	// it wholly, without loading states or touching the adjacency.
	// Iteration 0 never skips: it initializes every state, a partition
	// without a vertex of the initial frontier too.
	if e.sel != nil && iter > 0 {
		pend, err := e.pendingBytes(p)
		if err != nil {
			return err
		}
		if pend == 0 && e.sel.nextSet(lo, hi) == hi {
			e.accountSelective(selSchedule{blocksTotal: blocksSpanned(start, end, e.adj.BlockEntries)})
			return nil
		}
	}

	// --- MsgManager: load vertex states and apply pending messages ---
	if err := e.loadVertices(lo, hi, iter); err != nil {
		return err
	}
	// A drain that found nothing pending is not a drain stage: it records
	// no time or span, so a run whose every message is inline reports
	// drain time 0.
	var drainStart time.Time
	if e.eo.On {
		drainStart = time.Now()
	}
	appliedBefore := e.c.Applied
	if err := e.drainMessages(p, lo); err != nil {
		return err
	}
	if e.eo.On && e.c.Applied != appliedBefore {
		e.eo.Since(obs.StageDrain, iter, p, drainStart)
	}

	// The Worker's schedule is a list of vertex runs. A full scan is the
	// one run [lo, hi), built directly: with selective scheduling off the
	// planner never runs and BlocksScanned/BlocksSkipped never move. With
	// it on, plan after the drain, so bits set by pending messages are
	// visible; a dense partition comes back as that same single run.
	var runs []selRun
	sparse := false
	if e.sel != nil {
		sched := e.planner.plan(e.sel, e.layout, lo, hi, start, end, e.adj.BlockEntries, defaultSelectiveDensity)
		e.opts.Clock.ComputeUnits(sched.examined(), sim.CostActiveScan)
		e.accountSelective(sched)
		runs, sparse = sched.runs, !sched.streamAll
	} else {
		runs = []selRun{{lo: lo, hi: hi, startOff: start, endOff: end}}
	}

	// --- Sio: adjacency entries, prefetched off the device or served
	// from the resident cache ---
	var ps *pipeStats
	var partStart time.Time
	if e.eo.On {
		ps = e.newPipeStats()
		partStart = time.Now()
	}
	if e.adjCache != nil {
		// The one-time fill is a Sio-attributed read; do it before the
		// worker clock starts.
		if err := e.ensureResident(ps); err != nil {
			return err
		}
	}

	// --- Worker: update vertices in order, intercepting messages ---
	var workerStart time.Time
	if e.eo.On {
		workerStart = time.Now()
	}
	// A partitioned run under dynamic messages drains this partition's own
	// records in place, the last of them before the states are stored.
	inPlace := e.opts.DynamicMessages && !e.onSpot
	if inPlace {
		e.resPart, e.wm = p, hi
	}
	active, err := e.updateRuns(iter, runs, sparse, ps)
	if err != nil {
		return err
	}
	if inPlace {
		e.applyResident()
	}
	if e.eo.On {
		e.eo.Since(obs.StageWorker, iter, p, workerStart)
		e.recordPipe(ps, iter, p, partStart)
	}
	if active {
		e.active = true
	}

	// Flush this partition's vertex states back to the device — except
	// when pinned: they stay resident until one final flush at loop end.
	if e.pinned() {
		return nil
	}
	return e.storeVertices(lo, hi)
}

// send routes one message: SendAll's route for a single destination,
// written out because a call per message cannot afford the loop's set-up.
// A resident destination's message is Apply itself on one partition and,
// on the in-place route, while none of the resident partition's records is
// pending — so a program that sends per edge pays no record for it, and
// none overtakes an earlier message still in the buffer. Under selective
// scheduling the destination is marked when Apply reports a change, and on
// the in-place route whatever it reports, as sendRecords marks it there: a
// Send loop leaves SendAll's bits. Everything else writes the record.
// Program.Update reaches it through Context.Send.
func (e *Engine[V, M]) send(dst graph.VertexID, m M) {
	if i := uint64(dst - e.partLo); i < uint64(len(e.verts)) && (e.onSpot || e.resPart >= 0 && len(e.msgBufs[e.resPart]) == 0) {
		if changed := e.prog.Apply(&e.verts[i], m); e.sel != nil && (changed || !e.onSpot) {
			e.sel.set(dst)
		}
		e.c.Sent++
		e.c.Applied++
		e.c.Inline++
		return
	}
	e.sendRecords([]graph.VertexID{dst}, m)
}

// applyOnSpot returns SendAll's route on the spot (one partition under
// dynamic messages), where every destination is resident: a closure that
// has the program's ApplyAll apply m to every vertex of dsts as it is
// called, marking each one whose Apply reports a change in the bitmap under
// selective scheduling — Context.SendAll's one hop to the applier. It keeps
// list order, and that makes it the loop's execution.
//
// The engine learns how many messages were applied from the program, so the
// count is checked: on one partition every destination is resident
// (dos.Verify bounded each). A mismatch is recorded the way a failed spill
// is — SendAll has no error return — and fails the run at the next
// partition boundary (ErrProgramContract); the ledger keeps the count that
// adds up: every destination is counted in c.spot, which the Worker folds
// into Sent, Applied and Inline at the end of its pass. A destination past
// the last vertex, which ApplyAll skips, is not marked either.
//
// It is kept out of New on purpose: built inside New, the closure makes
// every served job (serve-mix) about a tenth slower, PageRank's too, whose
// loop it only calls.
//
//go:noinline
func (e *Engine[V, M]) applyOnSpot() func(dsts []graph.VertexID, m M) {
	return func(dsts []graph.VertexID, m M) {
		if applied := e.bulk.ApplyAll(e.sel, e.verts, e.partLo, dsts, m); applied != len(dsts) && e.runErr == nil {
			e.runErr = fmt.Errorf("%w: ApplyAll reported %d of %d destinations applied, all are resident",
				ErrProgramContract, applied, len(dsts))
		}
		e.c.spot += int64(len(dsts))
	}
}

// applyEachOnSpot is applyOnSpot for SendEach: a closure that has the
// program's ApplyEach apply ms[k] to dsts[k] for every k as it is called —
// each destination sees its applies in send order, as in the loop of Sends
// it stands for, and is marked when its Apply reports a change — and counts
// them in c.spot. ApplyEach's count is checked as ApplyAll's is, and so is
// the call: ms must match dsts one for one, or nothing is sent and the run
// fails at the next partition boundary. It is kept out of New for the
// reason applyOnSpot is.
//
//go:noinline
func (e *Engine[V, M]) applyEachOnSpot() func(dsts []graph.VertexID, ms []M) {
	return func(dsts []graph.VertexID, ms []M) {
		if len(ms) != len(dsts) {
			e.eachMismatch(dsts, ms)
			return
		}
		if applied := e.each.ApplyEach(e.sel, e.verts, e.partLo, dsts, ms); applied != len(dsts) && e.runErr == nil {
			e.runErr = fmt.Errorf("%w: ApplyEach reported %d of %d destinations applied, all are resident",
				ErrProgramContract, applied, len(dsts))
		}
		e.c.spot += int64(len(dsts))
	}
}

// sendEach is SendEach's route on every run but one partition under dynamic
// messages: send in a loop, ms[i] to dsts[i] — the per-edge route as Send
// takes it, so the in-place watermark and the record order are Send's.
func (e *Engine[V, M]) sendEach(dsts []graph.VertexID, ms []M) {
	if len(ms) != len(dsts) {
		e.eachMismatch(dsts, ms)
		return
	}
	for i, dst := range dsts {
		e.send(dst, ms[i])
	}
}

// eachMismatch records a SendEach whose messages do not match its
// destinations one for one; like a miscounting applier it fails the run at
// the next partition boundary (ErrProgramContract).
func (e *Engine[V, M]) eachMismatch(dsts []graph.VertexID, ms []M) {
	if e.runErr == nil {
		e.runErr = fmt.Errorf("%w: SendEach handed %d messages for %d destinations", ErrProgramContract, len(ms), len(dsts))
	}
}

// sendRecords is the records route — SendAll's on every run but one
// partition under dynamic messages, and send's whenever it does not apply
// on the spot: scatter writes a record for every destination of dsts, in
// list order. A resident destination's (only on a partitioned run under
// dynamic messages) counts as inline the moment it is
// sent and applied when applyResident drains the buffer — at once here if
// one addresses the vertex being updated — and under selective scheduling
// is marked schedulable now, changed or not, so a sparse Worker's live
// bitmap finds it ahead of the cursor: its Apply has not run yet, and the
// mark is a superset of the one Apply would report. The ledger takes the
// call's totals once.
func (e *Engine[V, M]) sendRecords(dsts []graph.VertexID, m M) {
	buffered := e.scatter(dsts, m)
	if sel, lo, n := e.sel, e.partLo, uint64(len(e.verts)); sel != nil && buffered < len(dsts) {
		for _, dst := range dsts {
			if uint64(dst-lo) < n {
				sel.set(dst)
			}
		}
	}
	e.c.Sent += int64(len(dsts))
	e.c.Inline += int64(len(dsts) - buffered)
	e.c.Buffered += int64(buffered)
	if e.wm == e.cursor {
		e.applyResident()
	}
}

// scatter is the record writer, kept out of line. It encodes m once, and
// for every destination of dsts, in list order, appends the 4-byte ID and
// the encoded bytes to the destination partition's buffer. A full buffer is
// spilled — or, the resident partition's, applied in place. It returns how
// many records it wrote outside the resident partition, and lowers the
// watermark to the smallest resident destination at or after the cursor.
// Every buffer has room for one more record on entry: makeMsgBufs and
// resume make them so, and a buffer that could not take another is emptied
// before the next.
func (e *Engine[V, M]) scatter(dsts []graph.VertexID, m M) (buffered int) {
	enc, rec := e.enc, 4+e.msize
	e.mcodec.Encode(enc, m)
	// A 4-byte message makes the record one 8-byte word: the ID in its low
	// half, the encoded message in its high half. Any other size takes the
	// copy below, one memmove a record.
	var word uint64
	if rec == 8 {
		word = uint64(binary.LittleEndian.Uint32(enc)) << 32
	}
	// The watermark as a distance from the cursor, span: on the in-place
	// route at most partHi's, so a destination under it is resident and
	// not yet updated — one unsigned compare, no branch. Elsewhere span is
	// 0 and nothing is under it.
	rp, cur, span := e.resPart, e.cursor, graph.VertexID(0)
	if rp >= 0 {
		span = e.wm - cur
	}
	// The loop's invariants live in locals. A record grows its buffer in
	// place: bufs[p] = bufs[p][:n] is a self-reslice, which stores the
	// length alone — no slice pointer, so no write barrier (make
	// inline-check holds that) — and so does emptying a flushed buffer.
	bufs, parts := e.msgBufs, e.parts
	for _, dst := range dsts {
		p := parts.partitionOf(dst)
		n := len(bufs[p])
		bufs[p] = bufs[p][:n+rec]
		if rec == 8 {
			binary.LittleEndian.PutUint64(bufs[p][n:], word|uint64(dst))
		} else {
			binary.LittleEndian.PutUint32(bufs[p][n:], uint32(dst))
			copy(bufs[p][n+4:], enc)
		}
		span = min(span, dst-cur)
		if p != rp {
			buffered++
		}
		if len(bufs[p])+rec > cap(bufs[p]) {
			if p == rp {
				e.applyRecords(bufs[p])
				span = e.partHi - cur // none is pending
			} else {
				e.spillBuffer(p, bufs[p])
			}
			bufs[p] = bufs[p][:0]
		}
	}
	if rp >= 0 {
		e.wm = cur + span
	}
	return buffered
}

// applyResident applies the resident partition's records in place, in send
// order, and empties its buffer: none is pending, and the watermark is
// partHi.
func (e *Engine[V, M]) applyResident() {
	p := e.resPart
	e.applyRecords(e.msgBufs[p])
	e.msgBufs[p] = e.msgBufs[p][:0]
	e.wm = e.partHi
}

// updateRuns is the Worker loop on live states: it updates the vertices
// of each run in ascending ID order, feeding every Update its adjacency
// from one source opened over the runs' entry spans and intercepting
// every message it sends. A full partition scan and a sparse selective
// schedule are both calls to it. Vertices outside every run are not
// touched: under selective scheduling they have a clear bit and no pending
// message, so a FrontierSafe program's update would be a no-op there. The
// same holds inside a sparse schedule's runs, whose blocks are read for
// somebody else's sake: there the loop's next vertex is the next set bit,
// read live — a bit an inline message sets ahead of the cursor is picked up
// in this pass, as a full scan would pick its vertex up. A vertex's own bit
// is this loop's to write: Context only carries MarkActive's flag back. On
// the in-place route the loop drains the resident records before it updates
// a vertex at or past the watermark, one of them pending for it.
//
// That is the vertex loop, one Update a vertex; a selective pass clears a
// vertex's bit before its update, in iteration 0 too. A pass that needs
// none of its per-vertex hooks — no bitmap, no watermark or cursor — and a
// program with UpdateRun (PageRank's; a scheduled program has none) take
// the run loop instead: one UpdateRun a degree run, or a window's worth of
// one, the same vertices in the same order with the same adjacency, the
// ledger's update and edge counts folded once a call. On the spot the
// messages are counted in c.spot and folded here once the pass ends.
func (e *Engine[V, M]) updateRuns(iter int, runs []selRun, sparse bool, ps *pipeStats) (bool, error) {
	defer e.foldSpot()
	var ranges []entryRange // what the prefetcher reads; resident entries need none
	if e.adjCache == nil {
		ranges = e.rangeBuf[:0]
		for _, r := range runs {
			ranges = append(ranges, entryRange{start: r.startOff, end: r.endOff})
		}
		e.rangeBuf = ranges
	}
	src, err := e.adjSource(ranges, ps)
	if err != nil {
		return false, err
	}
	defer src.stop()

	ctx := &e.ctx
	ctx.iteration, ctx.active = iter, false
	marked := false // an update of this pass called MarkActive (selective: ctx.active is per vertex there)
	br := batchReader{src: src}
	inPlace := e.resPart >= 0 // only the in-place route reads the cursor and the watermark
	var deg uint32
	var degEnd graph.VertexID // every vertex the loop reaches below degEnd has degree deg
	if e.runs != nil && e.sel == nil && !inPlace {
		for _, run := range runs {
			off := run.startOff
			for v := run.lo; v < run.hi; {
				if v >= degEnd {
					deg, degEnd = e.layout.DegreeRun(v)
				}
				adj, k, err := br.run(off, deg, min(degEnd, run.hi)-v)
				if err != nil {
					return false, fmt.Errorf("core: adjacency stream for vertex %d: %w", v, err)
				}
				i := v - e.partLo
				e.runs.UpdateRun(ctx, v, e.verts[i:i+k], adj, deg)
				e.c.Updates += int64(k)
				e.c.edges += int64(k) * int64(deg)
				off += int64(k) * int64(deg)
				v += k
			}
		}
		return ctx.active, nil
	}
	for _, run := range runs {
		off := run.startOff
		for v := run.lo; v < run.hi; v++ {
			if sparse {
				next := e.sel.nextSet(v, run.hi)
				if next == run.hi {
					break
				}
				if next < degEnd { // inside the current degree run the offset is arithmetic
					off += int64(next-v) * int64(deg)
				} else if next != v {
					off = e.layout.OffsetOf(next)
				}
				v = next
			}
			if v >= degEnd {
				deg, degEnd = e.layout.DegreeRun(v)
			}
			adj, err := br.adj(off, deg)
			if err != nil {
				return false, fmt.Errorf("core: adjacency stream for vertex %d: %w", v, err)
			}
			if inPlace {
				if v >= e.wm {
					e.applyResident() // v has a record pending
				}
				e.cursor = v
			}
			if e.sel == nil {
				e.prog.Update(ctx, v, &e.verts[v-e.partLo], adj)
			} else {
				// The bit is cleared before the update and set again if it
				// marked active.
				e.sel.clear(v)
				ctx.active = false
				e.prog.Update(ctx, v, &e.verts[v-e.partLo], adj)
				if ctx.active {
					e.sel.set(v)
					marked = true
				}
			}
			e.c.Updates++
			e.c.edges += int64(deg)
			off += int64(deg)
		}
	}
	return marked || ctx.active, nil
}

// foldSpot folds the messages applied on the spot during a Worker pass into
// the ledger's send totals: each was sent, applied and inline.
func (e *Engine[V, M]) foldSpot() {
	n := e.c.spot
	e.c.Sent += n
	e.c.Applied += n
	e.c.Inline += n
	e.c.spot = 0
}

// pendingBytes returns the bytes of messages pending for partition p:
// the spilled file plus the in-memory buffer tail. Size is a catalog
// lookup, not a charged device read.
func (e *Engine[V, M]) pendingBytes(p int) (int64, error) {
	sz, err := e.dev.Size(e.msgFile(p))
	if err != nil {
		return 0, err
	}
	return sz + int64(len(e.msgBufs[p])), nil
}

// accountSelective folds one partition's schedule into the ledger's
// block-scheduling totals.
func (e *Engine[V, M]) accountSelective(sched selSchedule) {
	e.c.BlocksScanned += sched.blocksRead
	e.c.BlocksSkipped += sched.blocksTotal - sched.blocksRead
}

// stage returns the staging buffer cut to n bytes. It is made on first use,
// for the largest partition's states at least (partitions differ by at most
// one vertex), and reused from then on.
func (e *Engine[V, M]) stage(n int) []byte {
	if cap(e.staging) < n {
		nParts := e.NumPartitions()
		e.staging = make([]byte, max(n, (e.layout.NumVertices()+nParts-1)/nParts*e.vsize))
	}
	return e.staging[:n]
}

// loadVertices brings [lo, hi) into e.verts: decoded from the vertex
// state file, or initialized via Program.Init on the first iteration.
func (e *Engine[V, M]) loadVertices(lo, hi graph.VertexID, iter int) error {
	e.partLo, e.partHi = lo, hi
	if e.pinned() {
		// One partition: e.verts already holds every state — from the Init
		// pass or the first load after a resume — and stays for the run.
		return nil
	}
	count := int(hi - lo)
	if cap(e.verts) < count {
		e.verts = make([]V, count)
	}
	e.verts = e.verts[:count]
	if iter == 0 {
		var deg uint32
		for v, end := lo, lo; v < hi; v++ {
			if v >= end {
				deg, end = e.layout.DegreeRun(v)
			}
			e.verts[v-lo] = e.prog.Init(v, deg)
		}
		e.opts.Clock.ComputeUnits(int64(count), sim.CostVertexUpdate)
		return nil
	}
	return e.vstate.Load(e.verts, lo, e.stage(count*e.vsize))
}

// storeVertices writes [lo, hi) back to the vertex state file.
func (e *Engine[V, M]) storeVertices(lo, hi graph.VertexID) error {
	count := int(hi - lo)
	return e.vstate.Store(e.verts[:count], lo, e.stage(count*e.vsize))
}

// makeMsgBufs makes the message buffers plan charged to the budget, one per
// partition, empty, and behind them scatter's msize bytes of scratch, enc,
// all in one allocation. Each buffer holds at least one whole record:
// scatter's re-slice would otherwise panic with slice bounds out of range
// whenever a record outgrows the configured buffer. New clamps
// MsgBufferBytes, but the hot path must not depend on a distant invariant
// surviving refactors. A buffer never grows past its capacity, so none
// reaches into the next.
func (e *Engine[V, M]) makeMsgBufs() {
	c := max(e.opts.MsgBufferBytes, 4+e.msize)
	nParts := e.NumPartitions()
	backing := make([]byte, nParts*c+e.msize)
	e.msgBufs = make([][]byte, nParts)
	for p := range e.msgBufs {
		e.msgBufs[p] = backing[p*c : p*c : (p+1)*c]
	}
	e.enc = backing[nParts*c:]
}

// spillBuffer appends a full message buffer to the partition's message
// file. Spill failures (e.g. device out of space) are recorded in runErr
// and fail the run at the next partition boundary — Send has no error
// return, matching the paper's API.
func (e *Engine[V, M]) spillBuffer(p int, buf []byte) {
	f, err := e.dev.Open(e.msgFile(p))
	if err != nil {
		e.c.spillErrs++
		if e.runErr == nil {
			e.runErr = err
		}
		return
	}
	if _, err := f.Append(buf); err != nil {
		e.c.spillErrs++
		if e.runErr == nil {
			e.runErr = fmt.Errorf("core: spilling messages for partition %d: %w", p, err)
		}
		return
	}
	e.c.Spilled += int64(len(buf) / (4 + e.msize))
}

// drainMessages applies partition p's pending messages — first the
// spilled file, then the in-memory tail — in their original send order,
// then clears both. The file comes through the staging buffer one device
// block at a time and each block's whole records are applied where they
// lie; a record that straddles two blocks is carried to the front of the
// next.
func (e *Engine[V, M]) drainMessages(p int, lo graph.VertexID) error {
	rec := 4 + e.msize
	if len(e.msgBufs[p]) == 0 {
		// Nothing in memory; skip even opening the file when the spill
		// store is empty too (Size is an uncharged catalog lookup).
		if sz, err := e.dev.Size(e.msgFile(p)); err != nil || sz == 0 {
			return err
		}
	}
	f, err := e.dev.Open(e.msgFile(p))
	if err != nil {
		return err
	}
	size := f.Size()
	if size%int64(rec) != 0 {
		return fmt.Errorf("core: message file %q torn (%d bytes, record %d)", e.msgFile(p), size, rec)
	}
	// Drain fan-in attribution: a count per vstate block of the partition,
	// folded into the heatmap once per drain.
	var heat []int64
	if e.eo.heat != nil {
		heat = make([]int64, e.vstateBlock(e.parts.starts[p+1]-1)-e.vstateBlock(lo)+1)
	}
	block := int(min(size, storage.DefaultBlockSize))
	buf := e.stage(block + rec) // a carried record is shorter than rec
	carry := 0
	for off := int64(0); off < size; {
		want := int(min(size-off, int64(block)))
		n, err := f.ReadAt(buf[carry:carry+want], off)
		if err == nil && n < want {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return fmt.Errorf("core: draining messages for partition %d: %w", p, err)
		}
		off += int64(n)
		whole := (carry + n) / rec * rec
		e.drainRecords(buf[:whole], lo, heat)
		carry = copy(buf, buf[whole:carry+n])
	}
	if err := f.Truncate(0); err != nil {
		return err
	}
	e.drainRecords(e.msgBufs[p], lo, heat)
	e.msgBufs[p] = e.msgBufs[p][:0]
	if heat != nil {
		e.flushDrainHeat(e.vstateBlock(lo), heat)
	}
	return nil
}

// applyRecords applies a run of whole message records — one block of the
// spill file, the in-memory tail, or the resident partition's buffer — to
// the resident partition, in order, through the program's ApplyRecords,
// and checks the count it returns: every record is the partition's
// (scatter routes by partitionOf, resume checks what it restores) unless a
// program sent past the last vertex, which partitionOf routes here too. It
// reports whether the count held; a miscount fails the run at the next
// partition boundary.
func (e *Engine[V, M]) applyRecords(recs []byte) bool {
	rec := 4 + e.msize
	n := len(recs) / rec
	applied := e.records.ApplyRecords(e.verts, e.partLo, recs, rec)
	if applied != n && e.runErr == nil {
		e.runErr = fmt.Errorf("%w: ApplyRecords applied %d of %d records for [%d,%d)",
			ErrProgramContract, applied, n, e.partLo, int(e.partLo)+len(e.verts))
	}
	e.c.Applied += int64(n)
	return applied == n
}

// drainRecords applies a run of the drain's records (applyRecords) and
// then, each in a pass of its own and only when its feature is on, marks
// the destinations schedulable (a delivered message makes its vertex so,
// whatever Apply reported: ApplyRecords has no room for the mark, see
// there) and counts them into heat, the drain's fan-in per vstate block
// from lo's. After a miscount it does neither: the run is failing, and a
// record past the last vertex has no bit or block to count in.
func (e *Engine[V, M]) drainRecords(recs []byte, lo graph.VertexID, heat []int64) {
	if !e.applyRecords(recs) {
		return
	}
	rec := 4 + e.msize
	if sel := e.sel; sel != nil {
		for off := 0; off+rec <= len(recs); off += rec {
			sel.set(graph.VertexID(binary.LittleEndian.Uint32(recs[off:])))
		}
	}
	if heat != nil {
		first := e.vstateBlock(lo)
		for off := 0; off+rec <= len(recs); off += rec {
			heat[e.vstateBlock(graph.VertexID(binary.LittleEndian.Uint32(recs[off:])))-first]++
		}
	}
}

// Values reads the final vertex states (by layout ID) after Run.
func (e *Engine[V, M]) Values() ([]V, error) {
	if !e.finished {
		return nil, fmt.Errorf("core: Values before Run")
	}
	return e.vstate.ReadAll(e.layout.NumVertices())
}

// Cleanup removes the engine's runtime files from the device. Removal
// failures are counted (Stats.RemoveErrors, graphz_remove_errors_total)
// rather than returned: by the time Cleanup runs the results have been
// read, and a leftover file is an audit concern, not a correctness one.
func (e *Engine[V, M]) Cleanup() {
	e.removeFiles(e.vstateFile())
	e.removeFiles(e.msgFiles...)
}

// removeFiles removes runtime files, counting the failures.
func (e *Engine[V, M]) removeFiles(names ...string) {
	for _, name := range names {
		if err := e.dev.Remove(name); err != nil {
			e.eo.removeErrs.Inc()
		}
	}
}
