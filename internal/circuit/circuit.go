// Package circuit provides the gate-level combinational netlist
// representation used throughout the StatSAT reproduction: gate types,
// a builder API, structural validation, topological ordering and both
// deterministic and noisy (probabilistic) evaluation.
//
// A Circuit is a DAG of gates. Primary inputs and key inputs are gates
// of type Input and Key with no fanin; every other gate computes a
// Boolean function of its fanin wires. Primary outputs are references
// to driver gates (a gate may drive several outputs, and an output may
// be driven by an input gate directly).
package circuit

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// GateType enumerates the supported gate functions. The set matches
// what appears in ISCAS/MCNC-style .bench netlists plus the Key input
// type introduced by logic locking.
type GateType uint8

// Supported gate types.
const (
	// Input is a primary input; it has no fanin.
	Input GateType = iota
	// Key is a key input added by logic locking; it has no fanin.
	Key
	// Const0 is the constant false; it has no fanin.
	Const0
	// Const1 is the constant true; it has no fanin.
	Const1
	// Buf passes its single fanin through.
	Buf
	// Not inverts its single fanin.
	Not
	// And is a conjunction of 1..n fanins.
	And
	// Nand is an inverted conjunction.
	Nand
	// Or is a disjunction of 1..n fanins.
	Or
	// Nor is an inverted disjunction.
	Nor
	// Xor is the parity of its fanins.
	Xor
	// Xnor is the inverted parity of its fanins.
	Xnor
	// Mux selects fanin[1] when fanin[0] is false, fanin[2] when true.
	Mux

	numGateTypes
)

var gateTypeNames = [numGateTypes]string{
	Input:  "INPUT",
	Key:    "KEY",
	Const0: "CONST0",
	Const1: "CONST1",
	Buf:    "BUF",
	Not:    "NOT",
	And:    "AND",
	Nand:   "NAND",
	Or:     "OR",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
	Mux:    "MUX",
}

// String returns the upper-case conventional name of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// IsInputType reports whether the type is a source (no fanin allowed).
func (t GateType) IsInputType() bool {
	switch t {
	case Input, Key, Const0, Const1:
		return true
	}
	return false
}

// MinFanin returns the minimum legal fanin count for the type.
func (t GateType) MinFanin() int {
	switch t {
	case Input, Key, Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	case Mux:
		return 3
	default:
		return 1
	}
}

// MaxFanin returns the maximum legal fanin count for the type, or -1
// for unbounded.
func (t GateType) MaxFanin() int {
	switch t {
	case Input, Key, Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	case Mux:
		return 3
	default:
		return -1
	}
}

// Eval computes the gate function over the given fanin values. It
// panics if the fanin count is illegal for the type; structural
// validation is expected to have happened at build time.
func (t GateType) Eval(in []bool) bool {
	switch t {
	case Const0:
		return false
	case Const1:
		return true
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And, Nand:
		v := true
		for _, b := range in {
			v = v && b
		}
		if t == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, b := range in {
			v = v || b
		}
		if t == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		if t == Xnor {
			return !v
		}
		return v
	case Mux:
		if in[0] {
			return in[2]
		}
		return in[1]
	}
	panic(fmt.Sprintf("circuit: Eval on source gate type %v", t))
}

// Gate is a single node in the netlist. Fanin holds gate IDs.
type Gate struct {
	Type  GateType
	Name  string
	Fanin []int
}

// Circuit is a combinational netlist. Gates are addressed by dense
// integer IDs (index into Gates). The zero value is an empty circuit
// ready for use via the Add* methods.
type Circuit struct {
	Name  string
	Gates []Gate
	// PIs, Keys list the gate IDs of primary and key inputs in
	// declaration order; these orders define the layout of input and
	// key vectors everywhere in the library.
	PIs  []int
	Keys []int
	// POs lists, in declaration order, the driver gate ID of each
	// primary output. The same gate may drive several outputs.
	POs []int
	// PONames optionally names outputs (parallel to POs). Empty names
	// fall back to the driver gate's name.
	PONames []string

	// Lazily built analyses, each valid while the circuit still has
	// the gate count it was built for (gates are only ever appended,
	// so addGate needs no invalidation store). They are atomic so that
	// goroutines sharing a finished circuit read-only may race on first
	// use: each may compile its own copy, all identical, and the last
	// store wins.
	topo atomic.Pointer[[]int]    // cached topological order
	prog atomic.Pointer[evalProg] // cached evaluation schedule
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name}
}

// NumGates returns the total number of gates including inputs.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumLogicGates returns the number of non-source gates (the gates that
// are subject to probabilistic errors under the paper's model).
func (c *Circuit) NumLogicGates() int {
	n := 0
	for i := range c.Gates {
		if !c.Gates[i].Type.IsInputType() {
			n++
		}
	}
	return n
}

// NumPIs, NumKeys and NumPOs report interface widths.
func (c *Circuit) NumPIs() int  { return len(c.PIs) }
func (c *Circuit) NumKeys() int { return len(c.Keys) }
func (c *Circuit) NumPOs() int  { return len(c.POs) }

// addGate appends a gate; the cached analyses see the new gate count
// and rebuild on next use.
func (c *Circuit) addGate(g Gate) int {
	id := len(c.Gates)
	c.Gates = append(c.Gates, g)
	return id
}

// AddInput declares a primary input and returns its gate ID.
func (c *Circuit) AddInput(name string) int {
	id := c.addGate(Gate{Type: Input, Name: name})
	c.PIs = append(c.PIs, id)
	return id
}

// AddKey declares a key input and returns its gate ID.
func (c *Circuit) AddKey(name string) int {
	id := c.addGate(Gate{Type: Key, Name: name})
	c.Keys = append(c.Keys, id)
	return id
}

// AddGate adds a logic gate with the given fanin gate IDs and returns
// its ID. Structural legality is checked by Validate, not here, so
// builders may wire forward references freely as long as the final
// netlist is acyclic.
func (c *Circuit) AddGate(t GateType, name string, fanin ...int) int {
	return c.addGate(Gate{Type: t, Name: name, Fanin: append([]int(nil), fanin...)})
}

// AddOutput declares gate id as a primary output with an optional
// distinct name (empty means: use the driver gate's name).
func (c *Circuit) AddOutput(id int, name string) {
	c.POs = append(c.POs, id)
	c.PONames = append(c.PONames, name)
}

// OutputName returns the name of output index i.
func (c *Circuit) OutputName(i int) string {
	if i < len(c.PONames) && c.PONames[i] != "" {
		return c.PONames[i]
	}
	return c.Gates[c.POs[i]].Name
}

// Validate checks structural sanity: fanin IDs in range, fanin arity
// legal for each type, no fanin on source gates, outputs in range, and
// acyclicity. It returns the first problem found.
func (c *Circuit) Validate() error {
	for id := range c.Gates {
		g := &c.Gates[id]
		if g.Type.IsInputType() && len(g.Fanin) != 0 {
			return fmt.Errorf("circuit %q: gate %d (%s %v) is a source but has %d fanins",
				c.Name, id, g.Name, g.Type, len(g.Fanin))
		}
		if n, min, max := len(g.Fanin), g.Type.MinFanin(), g.Type.MaxFanin(); n < min || (max >= 0 && n > max) {
			return fmt.Errorf("circuit %q: gate %d (%s %v) has illegal fanin count %d",
				c.Name, id, g.Name, g.Type, n)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(c.Gates) {
				return fmt.Errorf("circuit %q: gate %d (%s) references out-of-range fanin %d",
					c.Name, id, g.Name, f)
			}
		}
	}
	for i, po := range c.POs {
		if po < 0 || po >= len(c.Gates) {
			return fmt.Errorf("circuit %q: output %d references out-of-range gate %d", c.Name, i, po)
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns (and caches) a topological order of all gate IDs
// (sources first). It fails if the netlist contains a cycle.
func (c *Circuit) TopoOrder() ([]int, error) {
	if order := c.topo.Load(); order != nil && len(*order) == len(c.Gates) {
		return *order, nil
	}
	n := len(c.Gates)
	indeg := make([]int, n)
	fanout := make([][]int32, n)
	for id := range c.Gates {
		for _, f := range c.Gates[id].Fanin {
			if f < 0 || f >= n {
				return nil, fmt.Errorf("circuit %q: gate %d references out-of-range fanin %d", c.Name, id, f)
			}
			indeg[id]++
			fanout[f] = append(fanout[f], int32(id))
		}
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range fanout[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, int(s))
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("circuit %q: netlist contains a combinational cycle", c.Name)
	}
	c.topo.Store(&order)
	return order, nil
}

// MustTopoOrder is TopoOrder for circuits already known valid.
func (c *Circuit) MustTopoOrder() []int {
	o, err := c.TopoOrder()
	if err != nil {
		panic(err)
	}
	return o
}

// Eval evaluates the circuit deterministically. pi and key supply the
// primary and key input values in PIs/Keys order; key may be nil for
// unlocked circuits. The returned slice holds output values in POs
// order. scratch, if non-nil and large enough, is used for wire values
// to avoid allocation.
func (c *Circuit) Eval(pi, key []bool, scratch []bool) []bool {
	w := c.EvalWires(pi, key, scratch)
	out := make([]bool, len(c.POs))
	for i, po := range c.POs {
		out[i] = w[po]
	}
	return out
}

// EvalWires evaluates all wires deterministically and returns the
// per-gate value slice (indexed by gate ID). scratch, if cap-sufficient,
// backs the result.
func (c *Circuit) EvalWires(pi, key []bool, scratch []bool) []bool {
	if len(pi) != len(c.PIs) {
		panic(fmt.Sprintf("circuit %q: Eval with %d PI values, want %d", c.Name, len(pi), len(c.PIs)))
	}
	if len(key) != len(c.Keys) {
		panic(fmt.Sprintf("circuit %q: Eval with %d key values, want %d", c.Name, len(key), len(c.Keys)))
	}
	var w []bool
	if cap(scratch) >= len(c.Gates) {
		w = scratch[:len(c.Gates)]
	} else {
		w = make([]bool, len(c.Gates))
	}
	for i, id := range c.PIs {
		w[id] = pi[i]
	}
	for i, id := range c.Keys {
		w[id] = key[i]
	}
	var inBuf [8]bool
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		if g.Type.IsInputType() {
			if g.Type == Const1 {
				w[id] = true
			} else if g.Type == Const0 {
				w[id] = false
			}
			continue
		}
		in := inBuf[:0]
		for _, f := range g.Fanin {
			in = append(in, w[f])
		}
		w[id] = g.Type.Eval(in)
	}
	return w
}

// EvalNoisy evaluates the circuit under the paper's probabilistic
// error model: every logic gate's output is flipped independently with
// probability eps after its function is computed (source gates are
// noise-free). A fresh sample is drawn per call from rng.
func (c *Circuit) EvalNoisy(pi, key []bool, eps float64, rng *rand.Rand, scratch []bool) []bool {
	if len(pi) != len(c.PIs) || len(key) != len(c.Keys) {
		panic(fmt.Sprintf("circuit %q: EvalNoisy input width mismatch (%d/%d PIs, %d/%d keys)",
			c.Name, len(pi), len(c.PIs), len(key), len(c.Keys)))
	}
	var w []bool
	if cap(scratch) >= len(c.Gates) {
		w = scratch[:len(c.Gates)]
	} else {
		w = make([]bool, len(c.Gates))
	}
	for i, id := range c.PIs {
		w[id] = pi[i]
	}
	for i, id := range c.Keys {
		w[id] = key[i]
	}
	var inBuf [8]bool
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		if g.Type.IsInputType() {
			if g.Type == Const1 {
				w[id] = true
			} else if g.Type == Const0 {
				w[id] = false
			}
			continue
		}
		in := inBuf[:0]
		for _, f := range g.Fanin {
			in = append(in, w[f])
		}
		v := g.Type.Eval(in)
		if eps > 0 && rng.Float64() < eps {
			v = !v
		}
		w[id] = v
	}
	out := make([]bool, len(c.POs))
	for i, po := range c.POs {
		out[i] = w[po]
	}
	return out
}

// Clone returns a deep copy of the circuit (caches dropped).
func (c *Circuit) Clone() *Circuit {
	nc := &Circuit{
		Name:    c.Name,
		Gates:   make([]Gate, len(c.Gates)),
		PIs:     append([]int(nil), c.PIs...),
		Keys:    append([]int(nil), c.Keys...),
		POs:     append([]int(nil), c.POs...),
		PONames: append([]string(nil), c.PONames...),
	}
	for i, g := range c.Gates {
		nc.Gates[i] = Gate{Type: g.Type, Name: g.Name, Fanin: append([]int(nil), g.Fanin...)}
	}
	return nc
}

// GateByName returns the ID of the first gate with the given name.
func (c *Circuit) GateByName(name string) (int, bool) {
	for id := range c.Gates {
		if c.Gates[id].Name == name {
			return id, true
		}
	}
	return 0, false
}
