package circuit

import (
	"fmt"
	"math"
	"math/rand"
)

// BatchLanes is the number of independent samples evaluated per
// bit-parallel pass: one per bit of a machine word.
const BatchLanes = 64

// EvalNoisyBatch evaluates BatchLanes independent noisy samples of the
// circuit in one bit-parallel pass: every wire is a 64-bit word whose
// bit lanes are independent Monte-Carlo samples under the paper's
// per-gate error model (each logic gate flips each lane independently
// with probability eps).
//
// All lanes share the same primary-input and key values — exactly the
// oracle-sampling workload of eq. 1 — so a signal-probability query
// with Ns samples costs ceil(Ns/64) passes instead of Ns.
//
// Gate flips are generated with geometric skipping: the expected
// number of RNG draws per gate is 64*eps + O(1) rather than 64, which
// is what makes the batch pass worthwhile at the small eps values the
// paper studies.
//
// The returned slice holds one word per primary output. scratch, if
// cap-sufficient (NumGates words), backs the intermediate wires.
//
// EvalNoisyBlockInto is the production sampler; this single-word pass,
// with its own flipStream, is the independent reference its parity
// tests compare against.
func (c *Circuit) EvalNoisyBatch(pi, key []bool, eps float64, rng *rand.Rand, scratch []uint64) []uint64 {
	if len(pi) != len(c.PIs) || len(key) != len(c.Keys) {
		panic(fmt.Sprintf("circuit %q: EvalNoisyBatch input width mismatch (%d/%d PIs, %d/%d keys)",
			c.Name, len(pi), len(c.PIs), len(key), len(c.Keys)))
	}
	if eps < 0 || eps > 1 {
		panic(fmt.Sprintf("circuit %q: eps %v out of [0,1]", c.Name, eps))
	}
	p := c.program()
	var w []uint64
	if cap(scratch) >= len(c.Gates) {
		w = scratch[:len(c.Gates)]
	} else {
		w = make([]uint64, len(c.Gates))
	}
	for i, id := range c.PIs {
		w[id] = broadcast(pi[i])
	}
	for i, id := range c.Keys {
		w[id] = broadcast(key[i])
	}
	for _, id := range p.const0 {
		w[id] = 0
	}
	for _, id := range p.const1 {
		w[id] = ^uint64(0)
	}
	// Geometric-skipping state shared across all gates: we walk a
	// virtual stream of lane slots (64 per gate) and jump between flip
	// positions. The stream advances once per compiled op, in schedule
	// order — the same order EvalNoisyBlockInto pre-draws its mask
	// columns in, which keeps the two paths bit-identical.
	skip := newFlipStream(eps, rng)

	fanin := p.fanin
	for i := range p.ops {
		op := &p.ops[i]
		fan := fanin[op.off : op.off+op.nfan]
		var v uint64
		switch op.typ {
		case Buf:
			v = w[fan[0]]
		case Not:
			v = ^w[fan[0]]
		case And, Nand:
			v = ^uint64(0)
			for _, f := range fan {
				v &= w[f]
			}
			if op.typ == Nand {
				v = ^v
			}
		case Or, Nor:
			v = 0
			for _, f := range fan {
				v |= w[f]
			}
			if op.typ == Nor {
				v = ^v
			}
		case Xor, Xnor:
			v = 0
			for _, f := range fan {
				v ^= w[f]
			}
			if op.typ == Xnor {
				v = ^v
			}
		case Mux:
			s := w[fan[0]]
			v = (^s & w[fan[1]]) | (s & w[fan[2]])
		default:
			panic(fmt.Sprintf("circuit %q: unsupported gate type %v", c.Name, op.typ))
		}
		if eps > 0 {
			v ^= skip.nextMask()
		}
		w[op.out] = v
	}
	out := make([]uint64, len(c.POs))
	for i, po := range c.POs {
		out[i] = w[po]
	}
	return out
}

func broadcast(b bool) uint64 {
	if b {
		return ^uint64(0)
	}
	return 0
}

// flipStream produces per-gate 64-bit flip masks where each bit is set
// independently with probability eps, using geometric skipping over
// the lane stream.
type flipStream struct {
	eps    float64
	rng    *rand.Rand
	invLog float64 // 1 / log(1-eps)
	gap    int64   // lanes until the next flip, relative to the
	// current gate's lane 0
}

// newFlipStream returns the stream by value so the sampling hot path
// keeps it on the stack (one batch pass = one stream; a heap stream
// per pass was the top allocation of SignalProbs).
func newFlipStream(eps float64, rng *rand.Rand) flipStream {
	fs := flipStream{eps: eps, rng: rng}
	switch {
	case eps <= 0:
		fs.gap = math.MaxInt64
	case eps >= 1:
		fs.gap = 0
		fs.invLog = 0
	default:
		fs.invLog = 1 / math.Log1p(-eps)
		fs.gap = fs.draw()
	}
	return fs
}

// draw samples a geometric gap (number of non-flipped lanes before the
// next flipped one). drawFlipMasks open-codes this same arithmetic on
// its hot path; the two must stay step-identical (the block/batch
// parity tests enforce it).
func (fs *flipStream) draw() int64 {
	u := fs.rng.Float64()
	for u == 0 {
		u = fs.rng.Float64()
	}
	g := int64(math.Log(u) * fs.invLog)
	if g < 0 {
		g = 0
	}
	return g
}

// nextMask returns the flip mask for the next gate (64 lanes).
func (fs *flipStream) nextMask() uint64 {
	if fs.eps <= 0 {
		return 0
	}
	if fs.eps >= 1 {
		return ^uint64(0)
	}
	var m uint64
	for fs.gap < BatchLanes {
		m |= 1 << uint(fs.gap)
		fs.gap += 1 + fs.draw()
	}
	fs.gap -= BatchLanes
	return m
}
