// Package lattice is the draw the engine's two fuzz oracles share
// (FuzzEngineOracle in internal/algo/integration, FuzzEngineSeams in
// internal/core; DESIGN.md §6): a uint64 seed decodes into one point of a
// lattice of named axes, each a list of values, with rules that forbid
// pairs of values; and a seed corpus is held to reaching every pair of
// values the rules allow.
package lattice

import (
	"fmt"
	"strings"
)

// An Axis is one dimension of a draw: its name and its values.
type Axis struct {
	Name   string
	Values []string
}

// A Rule forbids every pair of a value of axis A and a value of axis B for
// which OK(a, b) is false.
type Rule struct {
	A, B string
	OK   func(a, b string) bool
}

// A Lattice is the axes of a draw and the rules between their values.
type Lattice struct {
	Axes  []Axis
	Rules []Rule
}

// Index returns the position of the named axis, and panics on a name no
// axis has.
func (l *Lattice) Index(name string) int {
	for i := range l.Axes {
		if l.Axes[i].Name == name {
			return i
		}
	}
	panic("lattice: no axis " + name)
}

// A Point is one draw: a value per axis, and Pick, which drives
// everything the axes leave open.
type Point struct {
	At   []int // per axis, the index of its value
	Pick uint64
	l    *Lattice
}

// Decode draws every axis from the seed, then Pick, then — rule by rule —
// moves each value of B the rule forbids on to the next one it allows.
func (l *Lattice) Decode(seed uint64) Point {
	p, s := Point{At: make([]int, len(l.Axes)), l: l}, seed
	for i := range p.At {
		p.At[i] = int(SplitMix(&s) % uint64(len(l.Axes[i].Values)))
	}
	p.Pick = SplitMix(&s)
	for _, r := range l.Rules {
		for b := l.Index(r.B); !r.OK(p.Val(r.A), p.Val(r.B)); {
			p.At[b] = (p.At[b] + 1) % len(l.Axes[b].Values)
		}
	}
	return p
}

// Pos returns the index of the point's value of the named axis.
func (p Point) Pos(name string) int { return p.At[p.l.Index(name)] }

// Val returns the point's value of the named axis.
func (p Point) Val(name string) string { return p.l.Axes[p.l.Index(name)].Values[p.Pos(name)] }

func (p Point) String() string {
	var b strings.Builder
	for i, a := range p.l.Axes {
		fmt.Fprintf(&b, "%s=%s ", a.Name, a.Values[p.At[i]])
	}
	return b.String() + fmt.Sprintf("pick=%#x", p.Pick)
}

// Uncovered returns every pair of values of two axes that the rules allow
// and no point combines, as "a=x with b=y".
func (l *Lattice) Uncovered(points []Point) []string {
	seen := map[[4]int]bool{}
	for _, p := range points {
		for i := range p.At {
			for j := i + 1; j < len(p.At); j++ {
				seen[[4]int{i, p.At[i], j, p.At[j]}] = true
			}
		}
	}
	var out []string
	for i := range l.Axes {
		for j := i + 1; j < len(l.Axes); j++ {
			for vi, a := range l.Axes[i].Values {
				for vj, b := range l.Axes[j].Values {
					legal := true
					for _, r := range l.Rules {
						if ra, rb := l.Index(r.A), l.Index(r.B); ra == i && rb == j || ra == j && rb == i {
							legal = legal && (ra == i && r.OK(a, b) || ra == j && r.OK(b, a))
						}
					}
					if legal && !seen[[4]int{i, vi, j, vj}] {
						out = append(out, fmt.Sprintf("%s=%s with %s=%s", l.Axes[i].Name, a, l.Axes[j].Name, b))
					}
				}
			}
		}
	}
	return out
}

// SplitMix is the splitmix64 generator: it advances the state one step and
// returns the next value.
func SplitMix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
