// Package errprop estimates per-output bit error ratios (BERs) of a
// probabilistic circuit for a specific input/key assignment using the
// Boolean Difference Calculus style of probabilistic error propagation
// (Mohyuddin et al.), which §IV-C of the paper relies on.
//
// Model: every logic gate inverts its computed output with probability
// eps, independently. For a concrete input vector the deterministic
// value of every wire is known; the propagated quantity is the
// probability that a wire's actual value differs from its
// deterministic value. Gate inputs are treated as independent (the
// standard approximation — reconvergent fanout correlations are
// ignored, which is why the paper calls the estimate "rough").
package errprop

import (
	"fmt"

	"statsat/internal/circuit"
)

// MaxEnumFanin bounds the exact flip-pattern enumeration per gate.
const MaxEnumFanin = 16

// estOp is one logic gate of the estimator's flattened schedule: the
// gate type and output ID plus an offset into the shared flat fanin
// array, laid out in topological order so the propagation loop
// streams three dense arrays instead of chasing Gate pointers. A gate
// with one or two fanins also carries its truth table: bit i of tt is
// the output when fanin j has value bit j of i.
type estOp struct {
	typ  circuit.GateType
	tt   uint8
	out  int32
	off  int32
	nfan int32
}

// Estimator carries the per-circuit scratch (deterministic wire
// values and per-wire error probabilities) and a flattened gate
// schedule that WireErrorProbs needs, so the per-DIP BER estimation
// loop — N_satis candidate keys per distinguishing input — reuses its
// buffers and topological order instead of rebuilding them for every
// key. An Estimator is bound to one circuit and is NOT safe for
// concurrent use; give each goroutine its own (they are cheap: a few
// NumGates-sized slices).
type Estimator struct {
	c     *circuit.Circuit
	vals  []bool
	p     []float64
	ops   []estOp
	fanin []int32
}

// NewEstimator returns an estimator for c with pre-sized scratch and
// a pre-flattened propagation schedule.
func NewEstimator(c *circuit.Circuit) *Estimator {
	est := &Estimator{
		c:    c,
		vals: make([]bool, c.NumGates()),
		p:    make([]float64, c.NumGates()),
	}
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		if g.Type.IsInputType() {
			continue // inputs and constants are noise-free: p stays 0
		}
		op := estOp{
			typ:  g.Type,
			out:  int32(id),
			off:  int32(len(est.fanin)),
			nfan: int32(len(g.Fanin)),
		}
		if n := len(g.Fanin); n >= 1 && n <= 2 {
			var in [2]bool
			for i := 0; i < 1<<uint(n); i++ {
				in[0], in[1] = i&1 == 1, i&2 == 2
				if g.Type.Eval(in[:n]) {
					op.tt |= 1 << uint(i)
				}
			}
		}
		est.ops = append(est.ops, op)
		for _, f := range g.Fanin {
			est.fanin = append(est.fanin, int32(f))
		}
	}
	return est
}

// WireErrorProbs returns, for every gate ID, the probability that the
// wire's value differs from its deterministic value, for input x, key
// k and per-gate error probability eps. The returned slice is the
// estimator's scratch, valid only until the next call on the same
// estimator. Copy it to retain it.
func (est *Estimator) WireErrorProbs(x, k []bool, eps float64) ([]float64, error) {
	c := est.c
	if eps < 0 || eps > 1 {
		return nil, fmt.Errorf("errprop: eps %v out of [0,1]", eps)
	}
	vals := c.EvalWires(x, k, est.vals)
	p := est.p[:c.NumGates()]
	for oi := range est.ops {
		op := &est.ops[oi]
		id := int(op.out)
		n := int(op.nfan)
		if n > MaxEnumFanin {
			return nil, fmt.Errorf("errprop: gate %d (%s) fanin %d exceeds enumeration limit %d",
				id, c.Gates[id].Name, n, MaxEnumFanin)
		}
		fan := est.fanin[op.off : op.off+op.nfan]
		correct := vals[id]
		// q = P(gate function over (possibly flipped) inputs differs
		// from the deterministic output), enumerating flip patterns.
		// Gates with one or two fanins read the flipped output from
		// their truth table. The pattern probabilities are the same
		// products in the same mask order as enumerateFlips (1.0*a ==
		// a), and a pattern that leaves the output correct adds +0.0,
		// so q is bitwise what enumerateFlips returns.
		var q float64
		switch n {
		case 1:
			e0 := p[fan[0]]
			wrong := flipTable(op.tt, bit(vals[fan[0]]), correct)
			q = wrong[0] * (1 - e0)
			q += wrong[1] * e0
		case 2:
			e0, e1 := p[fan[0]], p[fan[1]]
			wrong := flipTable(op.tt, bit(vals[fan[0]])|bit(vals[fan[1]])<<1, correct)
			q = wrong[0] * ((1 - e0) * (1 - e1))
			q += wrong[1] * (e0 * (1 - e1))
			q += wrong[2] * ((1 - e0) * e1)
			q += wrong[3] * (e0 * e1)
		default:
			q = enumerateFlips(op.typ, fan, vals, p, correct)
		}
		// Fold in the gate's own flip: wrong iff exactly one of
		// (inputs made it wrong, gate flipped).
		p[id] = q*(1-eps) + (1-q)*eps
	}
	return p, nil
}

// enumerateFlips returns the probability that a gate of type typ over
// fanins fan computes a value other than correct, summed over all 2^n
// flip patterns of its fanins given their values vals and error
// probabilities p.
func enumerateFlips(typ circuit.GateType, fan []int32, vals []bool, p []float64, correct bool) float64 {
	var faninVals [MaxEnumFanin]bool
	var faninErrs [MaxEnumFanin]float64
	var flipped [MaxEnumFanin]bool
	n := len(fan)
	for i, f := range fan {
		faninVals[i] = vals[f]
		faninErrs[i] = p[f]
	}
	q := 0.0
	for mask := 0; mask < 1<<uint(n); mask++ {
		prob := 1.0
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 1 {
				prob *= faninErrs[i]
				flipped[i] = !faninVals[i]
			} else {
				prob *= 1 - faninErrs[i]
				flipped[i] = faninVals[i]
			}
		}
		//lint:ignore floateq exact-zero short-circuit: prob is a product that is 0.0 only when a factor is exactly 0, and the branch is a pure skip-work optimisation
		if prob == 0 {
			continue
		}
		if typ.Eval(flipped[:n]) != correct {
			q += prob
		}
	}
	return q
}

// flipTable returns, for each flip pattern m of a gate with one or
// two fanins whose deterministic fanin pattern is in, 1 if flipping
// the fanins in m changes the output away from correct and 0 if not.
func flipTable(tt uint8, in uint, correct bool) [4]float64 {
	wrong := uint(tt)
	if correct {
		wrong = ^wrong
	}
	return [4]float64{
		float64(wrong >> in & 1),
		float64(wrong >> (in ^ 1) & 1),
		float64(wrong >> (in ^ 2) & 1),
		float64(wrong >> (in ^ 3) & 1),
	}
}

func bit(b bool) uint {
	if b {
		return 1
	}
	return 0
}

// OutputBERsInto computes the per-output BER estimate for input x and
// key k under gate error eps (the attacker's E vector of §IV-C for one
// candidate key) into dst, which backs the result when cap-sufficient;
// nil allocates.
func (est *Estimator) OutputBERsInto(dst []float64, x, k []bool, eps float64) ([]float64, error) {
	p, err := est.WireErrorProbs(x, k, eps)
	if err != nil {
		return nil, err
	}
	c := est.c
	if cap(dst) >= c.NumPOs() {
		dst = dst[:c.NumPOs()]
	} else {
		dst = make([]float64, c.NumPOs())
	}
	for i, po := range c.POs {
		dst[i] = p[po]
	}
	return dst, nil
}

// AverageOutputBERs averages the per-output BER estimate over several
// candidate keys, exactly as §IV-C prescribes: the satisfying keys of
// the previous DIPs each yield a BER estimate; their mean is the E
// used for thresholding. Returns an error if keys is empty. The
// per-key wire probabilities live in the estimator's scratch, so only
// the returned averaged vector is allocated (it is freshly allocated
// on every call because callers retain it per DIP).
func (est *Estimator) AverageOutputBERs(x []bool, keys [][]bool, eps float64) ([]float64, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("errprop: no candidate keys to average over")
	}
	c := est.c
	acc := make([]float64, c.NumPOs())
	for _, k := range keys {
		p, err := est.WireErrorProbs(x, k, eps)
		if err != nil {
			return nil, err
		}
		for i, po := range c.POs {
			acc[i] += p[po]
		}
	}
	for i := range acc {
		acc[i] /= float64(len(keys))
	}
	return acc, nil
}
