package graphzalgo

import (
	"encoding/binary"
	"math"

	"graphz/internal/core"
	"graphz/internal/dos"
	"graphz/internal/graph"
)

// Belief propagation on a pairwise two-state Markov random field in the
// log domain. Node priors derive from a vertex-ID hash and pairwise
// potentials from graph.EdgeCoupling, standing in for the paper's
// per-edge input data (DESIGN.md substitutions). Messages carry the
// per-state log-likelihood a sender contributes to its out-neighbor.

// bpVal is the vertex's normalized log-belief plus the accumulator for
// inbound messages.
type bpVal struct {
	B0, B1 float32 // log-belief per state
	A0, A1 float32 // accumulated inbound log-messages
}

type bpValCodec struct{}

func (bpValCodec) Size() int { return 16 }

func (bpValCodec) Encode(b []byte, v bpVal) {
	binary.LittleEndian.PutUint32(b, math.Float32bits(v.B0))
	binary.LittleEndian.PutUint32(b[4:], math.Float32bits(v.B1))
	binary.LittleEndian.PutUint32(b[8:], math.Float32bits(v.A0))
	binary.LittleEndian.PutUint32(b[12:], math.Float32bits(v.A1))
}

func (bpValCodec) Decode(b []byte) bpVal {
	return bpVal{
		B0: math.Float32frombits(binary.LittleEndian.Uint32(b)),
		B1: math.Float32frombits(binary.LittleEndian.Uint32(b[4:])),
		A0: math.Float32frombits(binary.LittleEndian.Uint32(b[8:])),
		A1: math.Float32frombits(binary.LittleEndian.Uint32(b[12:])),
	}
}

// bpMsg is a two-state log-message.
type bpMsg struct {
	M0, M1 float32
}

type bpMsgCodec struct{}

func (bpMsgCodec) Size() int { return 8 }

func (bpMsgCodec) Encode(b []byte, m bpMsg) {
	binary.LittleEndian.PutUint32(b, math.Float32bits(m.M0))
	binary.LittleEndian.PutUint32(b[4:], math.Float32bits(m.M1))
}

func (bpMsgCodec) Decode(b []byte) bpMsg {
	return bpMsg{
		M0: math.Float32frombits(binary.LittleEndian.Uint32(b)),
		M1: math.Float32frombits(binary.LittleEndian.Uint32(b[4:])),
	}
}

// bpPrior derives a deterministic log-prior for a vertex.
func bpPrior(id graph.VertexID) (float32, float32) {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	p := 0.2 + 0.6*float64(x&0xFFFFFF)/float64(1<<24)
	return float32(math.Log(p)), float32(math.Log(1 - p))
}

// logAdd returns log(exp(a)+exp(b)) stably.
func logAdd(a, b float32) float32 {
	if a < b {
		a, b = b, a
	}
	return a + float32(math.Log1p(math.Exp(float64(b-a))))
}

type bpProgram struct{}

func (bpProgram) Init(id graph.VertexID, deg uint32) bpVal {
	p0, p1 := bpPrior(id)
	return bpVal{B0: p0, B1: p1}
}

func (bpProgram) Update(ctx *core.Context[bpMsg], id graph.VertexID, v *bpVal, adj []graph.VertexID) {
	if ctx.Iteration() > 0 {
		p0, p1 := bpPrior(id)
		// Damped update (lambda = 0.5): geometric mixing with the
		// previous belief prevents parallel loopy BP's period-2
		// oscillation, so all engines converge to one fixpoint.
		n0 := p0 + v.A0
		n1 := p1 + v.A1
		z := logAdd(n0, n1)
		v.B0 = 0.5*(n0-z) + 0.5*v.B0
		v.B1 = 0.5*(n1-z) + 0.5*v.B1
		z = logAdd(v.B0, v.B1)
		v.B0 -= z
		v.B1 -= z
		v.A0, v.A1 = 0, 0
	}
	for _, a := range adj {
		c := graph.EdgeCoupling(id, a) // P(same state)
		same := float32(math.Log(c))
		diff := float32(math.Log(1 - c))
		m := bpMsg{
			M0: logAdd(v.B0+same, v.B1+diff),
			M1: logAdd(v.B0+diff, v.B1+same),
		}
		z := logAdd(m.M0, m.M1)
		m.M0 -= z
		m.M1 -= z
		ctx.Send(a, m)
	}
}

func (bpProgram) Apply(v *bpVal, m bpMsg) bool {
	v.A0 += m.M0
	v.A1 += m.M1
	return true
}

// BeliefPropagation runs the given number of loopy BP iterations and
// returns each vertex's marginal probability of state 1.
func BeliefPropagation(g *dos.Graph, opts core.Options, iterations int) (core.Result, []float32, error) {
	return BeliefPropagationLayout(core.DOSLayout(g), opts, iterations)
}

// BeliefPropagationLayout is BP over an explicit layout (for the
// ablations).
func BeliefPropagationLayout(l core.Layout, opts core.Options, iterations int) (core.Result, []float32, error) {
	opts.MaxIterations = iterations
	res, vals, err := runLayout[bpVal, bpMsg](l, bpProgram{}, bpValCodec{}, bpMsgCodec{}, opts)
	if err != nil {
		return core.Result{}, nil, err
	}
	marginals := make([]float32, len(vals))
	for i, v := range vals {
		// The belief folded during the final update is the result;
		// accumulator contents are a partial round.
		m := v.B0
		if v.B1 > m {
			m = v.B1
		}
		e0 := math.Exp(float64(v.B0 - m))
		e1 := math.Exp(float64(v.B1 - m))
		marginals[i] = float32(e1 / (e0 + e1))
	}
	return res, marginals, nil
}
