package circuit

// evalOp is one compiled gate operation: the gate's function, its
// output wire slot and a window into the program's flat fanin array.
// Compiling the topological walk once turns the per-pass evaluation
// loop from pointer-chasing Gate structs (type + name pointer + fanin
// slice header per gate) into a linear scan over two dense arrays,
// which is what keeps 100k-gate passes memory-bound on wire data
// instead of on netlist metadata.
type evalOp struct {
	typ  GateType
	nfan int32
	out  int32
	off  int32 // start of the fanin window in evalProg.fanin
}

// evalProg is the compiled evaluation schedule of a circuit: all
// non-source gates in topological order plus the constant wires that
// must be pinned before a pass.
type evalProg struct {
	ops    []evalOp
	fanin  []int32
	const0 []int32 // gate IDs of Const0 sources
	const1 []int32 // gate IDs of Const1 sources
	ngates int     // len(Circuit.Gates) the schedule was compiled for
}

// program returns (and caches) the compiled evaluation schedule. Like
// the topological-order cache it is built lazily and rebuilt once
// gates have been added.
func (c *Circuit) program() *evalProg {
	if p := c.prog.Load(); p != nil && p.ngates == len(c.Gates) {
		return p
	}
	p := &evalProg{ngates: len(c.Gates)}
	nfan := 0
	for id := range c.Gates {
		nfan += len(c.Gates[id].Fanin)
	}
	p.fanin = make([]int32, 0, nfan)
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		switch g.Type {
		case Input, Key:
			continue
		case Const0:
			p.const0 = append(p.const0, int32(id))
			continue
		case Const1:
			p.const1 = append(p.const1, int32(id))
			continue
		}
		off := int32(len(p.fanin))
		for _, f := range g.Fanin {
			p.fanin = append(p.fanin, int32(f))
		}
		p.ops = append(p.ops, evalOp{typ: g.Type, nfan: int32(len(g.Fanin)), out: int32(id), off: off})
	}
	c.prog.Store(p)
	return p
}

// NumLogicOps returns the number of compiled (noise-carrying) gate
// operations: every non-source gate. This is the per-pass flip-stream
// length of the noisy evaluators.
func (c *Circuit) NumLogicOps() int { return len(c.program().ops) }
