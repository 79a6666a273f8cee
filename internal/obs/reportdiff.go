package obs

import "sort"

// Report diffing: graphz-report's `diff` mode compares two RunReports of
// the same configuration — typically the same graph and algorithm at two
// budgets or two code revisions — and localizes regressions to stages,
// counters, and block ranges. It complements graphz-benchdiff, which
// only sees ns/op: a report diff says *where* the extra time and IO
// went.
//
// Direction convention: a "regression" is an increase from base to
// current that clears both the relative threshold and an absolute floor
// (MinNS for durations, MinCount for counts). The floors exist to
// de-flake timing noise on fast runs; semantics stay with the caller —
// e.g. a blocks-skipped increase is flagged too, and the reader decides
// whether that is good news.

// DiffOptions tunes the thresholds of DiffReports.
type DiffOptions struct {
	// Threshold is the relative growth ((cur-base)/base) at or above
	// which a change is a regression; 0 means the default 0.25.
	Threshold float64
	// MinNS is the absolute nanosecond floor a duration increase must
	// clear; 0 means the default 250µs. Negative disables the floor.
	MinNS int64
	// MinCount is the absolute floor a count increase must clear;
	// 0 means the default 16. Negative disables the floor.
	MinCount int64
	// TopBlocks caps the reported block-range regressions; 0 means the
	// default 16.
	TopBlocks int
}

func (o DiffOptions) threshold() float64 {
	if o.Threshold <= 0 {
		return 0.25
	}
	return o.Threshold
}

func (o DiffOptions) minNS() int64 {
	switch {
	case o.MinNS < 0:
		return 0
	case o.MinNS == 0:
		return 250_000
	default:
		return o.MinNS
	}
}

func (o DiffOptions) minCount() int64 {
	switch {
	case o.MinCount < 0:
		return 0
	case o.MinCount == 0:
		return 16
	default:
		return o.MinCount
	}
}

func (o DiffOptions) topBlocks() int {
	if o.TopBlocks <= 0 {
		return 16
	}
	return o.TopBlocks
}

// StageDelta compares one stage's span-aggregated wall time.
type StageDelta struct {
	Stage     string `json:"stage"`
	BaseNS    int64  `json:"base_ns"`
	CurNS     int64  `json:"cur_ns"`
	Regressed bool   `json:"regressed,omitempty"`
}

// CounterDelta compares one counter's final value. Only counters whose
// change clears the floors appear in the diff.
type CounterDelta struct {
	Name      string `json:"name"`
	Base      int64  `json:"base"`
	Cur       int64  `json:"cur"`
	Regressed bool   `json:"regressed,omitempty"`
}

// BlockRangeDelta is a run of adjacent blocks of one file whose metric
// regressed, merged into a single [FirstBlock, LastBlock] range with the
// summed base/current values.
type BlockRangeDelta struct {
	File       string `json:"file"`
	Metric     string `json:"metric"` // read_bytes | decode_ns | drain_msgs
	FirstBlock int64  `json:"first_block"`
	LastBlock  int64  `json:"last_block"`
	Base       int64  `json:"base"`
	Cur        int64  `json:"cur"`
}

// ReportDiff is the result of DiffReports.
type ReportDiff struct {
	Stages   []StageDelta      `json:"stages,omitempty"`
	Counters []CounterDelta    `json:"counters,omitempty"`
	Blocks   []BlockRangeDelta `json:"blocks,omitempty"`
	// Regressions counts the flagged stage, counter, and block-range
	// regressions; graphz-report diff exits non-zero when it is > 0.
	Regressions int `json:"regressions"`
}

// regressedBy reports whether cur regressed from base given a relative
// threshold and an absolute floor on the increase.
func regressedBy(base, cur, floor int64, threshold float64) bool {
	delta := cur - base
	if delta <= 0 || delta < floor {
		return false
	}
	if base == 0 {
		return true // new cost appearing from nothing
	}
	return float64(delta)/float64(base) >= threshold
}

// DiffReports compares two reports and localizes regressions. Stages are
// always all listed (they are few); counters only when their change
// clears the floors; blocks as merged ranges of adjacent regressed
// blocks, largest increases first, capped at TopBlocks.
func DiffReports(base, cur *RunReport, opts DiffOptions) *ReportDiff {
	d := &ReportDiff{}
	th := opts.threshold()

	// Stages: union of both reports' stage totals.
	bTot, cTot := base.StageTotals(), cur.StageTotals()
	for _, name := range unionKeys(bTot, cTot) {
		sd := StageDelta{Stage: name, BaseNS: bTot[name], CurNS: cTot[name]}
		if regressedBy(sd.BaseNS, sd.CurNS, opts.minNS(), th) {
			sd.Regressed = true
			d.Regressions++
		}
		d.Stages = append(d.Stages, sd)
	}
	sort.Slice(d.Stages, func(i, j int) bool {
		di := d.Stages[i].CurNS - d.Stages[i].BaseNS
		dj := d.Stages[j].CurNS - d.Stages[j].BaseNS
		if di != dj {
			return di > dj
		}
		return d.Stages[i].Stage < d.Stages[j].Stage
	})

	// Counters: union, floored to the notable changes in either
	// direction; increases that clear the threshold are regressions.
	for _, name := range unionKeys(base.Counters, cur.Counters) {
		b, c := base.Counters[name], cur.Counters[name]
		delta := c - b
		if delta < 0 {
			delta = -delta
		}
		if delta < opts.minCount() {
			continue
		}
		cd := CounterDelta{Name: name, Base: b, Cur: c}
		if regressedBy(b, c, opts.minCount(), th) {
			cd.Regressed = true
			d.Regressions++
		}
		d.Counters = append(d.Counters, cd)
	}
	sort.Slice(d.Counters, func(i, j int) bool {
		di := absDelta(d.Counters[i].Cur, d.Counters[i].Base)
		dj := absDelta(d.Counters[j].Cur, d.Counters[j].Base)
		if di != dj {
			return di > dj
		}
		return d.Counters[i].Name < d.Counters[j].Name
	})

	d.Blocks = diffBlocks(base.Blocks, cur.Blocks, opts)
	d.Regressions += len(d.Blocks)
	return d
}

func absDelta(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// blockMetrics enumerates the heatmap metrics and their floors.
var blockMetrics = []struct {
	name string
	get  func(BlockHeat) int64
	ns   bool // duration metric (MinNS floor) vs count metric (MinCount)
}{
	{"read_bytes", func(c BlockHeat) int64 { return c.ReadBytes }, false},
	{"decode_ns", func(c BlockHeat) int64 { return c.DecodeNS }, true},
	{"drain_msgs", func(c BlockHeat) int64 { return c.DrainMsgs }, false},
}

// diffBlocks flags per-(file, block, metric) regressions and merges
// adjacent regressed blocks of the same file and metric into ranges.
func diffBlocks(base, cur []BlockHeat, opts DiffOptions) []BlockRangeDelta {
	th := opts.threshold()
	idx := make(map[blockKey]BlockHeat, len(base))
	for _, c := range base {
		idx[blockKey{file: c.File, block: c.Block}] = c
	}
	// Walk the union of blocks in (file, block) order so adjacency
	// merging is a single pass.
	inCur := make(map[blockKey]bool, len(cur))
	for _, c := range cur {
		inCur[blockKey{file: c.File, block: c.Block}] = true
	}
	all := make([]BlockHeat, 0, len(cur)+len(base))
	all = append(all, cur...)
	for _, c := range base {
		if !inCur[blockKey{file: c.File, block: c.Block}] {
			// Base-only blocks join as zero-valued cells: they can only
			// improve, but keeping them makes the union walk uniform.
			all = append(all, BlockHeat{File: c.File, Block: c.Block})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		return all[i].Block < all[j].Block
	})

	var out []BlockRangeDelta
	for _, m := range blockMetrics {
		floor := opts.minCount()
		if m.ns {
			floor = opts.minNS()
		}
		var open *BlockRangeDelta
		for _, c := range all {
			b := m.get(idx[blockKey{file: c.File, block: c.Block}])
			v := m.get(c)
			if !regressedBy(b, v, floor, th) {
				open = nil
				continue
			}
			if open != nil && open.File == c.File && open.LastBlock+1 == c.Block {
				open.LastBlock = c.Block
				open.Base += b
				open.Cur += v
				continue
			}
			out = append(out, BlockRangeDelta{
				File: c.File, Metric: m.name,
				FirstBlock: c.Block, LastBlock: c.Block,
				Base: b, Cur: v,
			})
			open = &out[len(out)-1]
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].Cur-out[i].Base, out[j].Cur-out[j].Base
		if di != dj {
			return di > dj
		}
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Metric != out[j].Metric {
			return out[i].Metric < out[j].Metric
		}
		return out[i].FirstBlock < out[j].FirstBlock
	})
	if len(out) > opts.topBlocks() {
		out = out[:opts.topBlocks()]
	}
	return out
}

// unionKeys returns the sorted union of both maps' keys.
func unionKeys(a, b map[string]int64) []string {
	set := make(map[string]struct{}, len(a)+len(b))
	for k := range a {
		set[k] = struct{}{}
	}
	for k := range b {
		set[k] = struct{}{}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
