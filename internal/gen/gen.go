// Package gen provides the benchmark circuits for the reproduction:
// the real ISCAS85 c17, a seeded random-DAG generator, and synthetic
// stand-ins for the Table I benchmark suite (c3540, c7552, ex1010,
// seq, b14, b15) plus c880 (used by Table V).
//
// Substitution note (see DESIGN.md §8): the original ISCAS/MCNC/ITC99
// netlists are not redistributable from memory; the stand-ins match
// the published input/gate/output counts so that attack dynamics
// (miter size, oracle width, BER distributions) are comparable, and a
// scale factor shrinks gate counts for CI-speed experiment profiles.
package gen

import (
	"fmt"
	"math/rand"

	"statsat/internal/circuit"
)

// C17 returns the real ISCAS85 c17 netlist (6 NAND gates).
func C17() *circuit.Circuit {
	c := circuit.New("c17")
	g1 := c.AddInput("1")
	g2 := c.AddInput("2")
	g3 := c.AddInput("3")
	g6 := c.AddInput("6")
	g7 := c.AddInput("7")
	g10 := c.AddGate(circuit.Nand, "10", g1, g3)
	g11 := c.AddGate(circuit.Nand, "11", g3, g6)
	g16 := c.AddGate(circuit.Nand, "16", g2, g11)
	g19 := c.AddGate(circuit.Nand, "19", g11, g7)
	g22 := c.AddGate(circuit.Nand, "22", g10, g16)
	g23 := c.AddGate(circuit.Nand, "23", g16, g19)
	c.AddOutput(g22, "22")
	c.AddOutput(g23, "23")
	return c
}

// Random generates a seeded random combinational circuit with the
// given interface widths. The construction is deterministic in the
// seed. Fanin selection is locality-biased so the netlist develops
// realistic logic depth instead of collapsing into a two-level cloud;
// each primary input is forced into at least one gate's fanin; primary
// outputs are drawn preferentially from fanout-free gates so most of
// the netlist stays observable.
func Random(name string, nIn, nGates, nOut int, seed int64) *circuit.Circuit {
	if nIn < 1 || nGates < 1 || nOut < 1 {
		panic(fmt.Sprintf("gen: Random(%q) with non-positive dimension", name))
	}
	if nOut > nGates {
		panic(fmt.Sprintf("gen: Random(%q) needs %d distinct output drivers but has only %d gates", name, nOut, nGates))
	}
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(name)
	for i := 0; i < nIn; i++ {
		c.AddInput(fmt.Sprintf("in%d", i))
	}

	// Weighted gate-type mix, roughly matching ISCAS population.
	pick := func() circuit.GateType {
		switch r := rng.Intn(100); {
		case r < 22:
			return circuit.Nand
		case r < 40:
			return circuit.And
		case r < 55:
			return circuit.Nor
		case r < 70:
			return circuit.Or
		case r < 84:
			return circuit.Not
		case r < 92:
			return circuit.Xor
		default:
			return circuit.Xnor
		}
	}
	window := nGates / 10
	if window < 8 {
		window = 8
	}
	pickFanin := func() int {
		n := len(c.Gates)
		if n > window && rng.Float64() < 0.75 {
			return n - 1 - rng.Intn(window)
		}
		return rng.Intn(n)
	}
	for i := 0; i < nGates; i++ {
		ty := pick()
		var f1 int
		if i < nIn {
			f1 = c.PIs[i] // force every input into some fanin
		} else {
			f1 = pickFanin()
		}
		if ty == circuit.Not {
			c.AddGate(ty, fmt.Sprintf("g%d", i), f1)
			continue
		}
		f2 := pickFanin()
		c.AddGate(ty, fmt.Sprintf("g%d", i), f1, f2)
	}

	// Outputs: prefer fanout-free gates (sinks) so the dead-logic
	// fraction stays small; fill up with random distinct gates.
	fan := c.Fanouts()
	var sinks []int
	for id := nIn; id < len(c.Gates); id++ {
		if len(fan[id]) == 0 {
			sinks = append(sinks, id)
		}
	}
	rng.Shuffle(len(sinks), func(i, j int) { sinks[i], sinks[j] = sinks[j], sinks[i] })
	chosen := map[int]bool{}
	for _, s := range sinks {
		if len(c.POs) >= nOut {
			break
		}
		c.AddOutput(s, "")
		chosen[s] = true
	}
	for len(c.POs) < nOut {
		id := nIn + rng.Intn(nGates)
		if chosen[id] {
			continue
		}
		c.AddOutput(id, "")
		chosen[id] = true
	}
	return c
}

// Benchmark describes one Table I (or Table V) circuit.
type Benchmark struct {
	Name    string
	Source  string
	Inputs  int
	Gates   int
	Outputs int
	Seed    int64
}

// TableI is the paper's benchmark suite (Table I), with c880 appended
// because Table V uses it for the PSAT comparison. Sizes follow the
// published counts.
var TableI = []Benchmark{
	{Name: "c3540", Source: "ISCAS85", Inputs: 50, Gates: 1669, Outputs: 22, Seed: 3540},
	{Name: "c7552", Source: "ISCAS85", Inputs: 207, Gates: 3512, Outputs: 108, Seed: 7552},
	{Name: "ex1010", Source: "MCNC", Inputs: 10, Gates: 5066, Outputs: 10, Seed: 1010},
	{Name: "seq", Source: "MCNC", Inputs: 41, Gates: 3519, Outputs: 35, Seed: 417},
	{Name: "b14", Source: "ITC99", Inputs: 277, Gates: 9767, Outputs: 299, Seed: 1499},
	{Name: "b15", Source: "ITC99", Inputs: 485, Gates: 8367, Outputs: 519, Seed: 1599},
	{Name: "c880", Source: "ISCAS85", Inputs: 60, Gates: 383, Outputs: 26, Seed: 880},
}

// Extra holds presets beyond the paper's tables: scaling targets the
// attack must handle even though no published experiment uses them.
// synth100k is the ROADMAP's "100k-gate circuits at interactive
// latency" workload — the CI smoke job and the scaling measurements
// in docs/PERFORMANCE.md build it by name.
var Extra = []Benchmark{
	{Name: "synth100k", Source: "synthetic", Inputs: 256, Gates: 100000, Outputs: 128, Seed: 100001},
}

// ByName looks a benchmark up by name, in TableI first, then Extra.
func ByName(name string) (Benchmark, bool) {
	for _, b := range TableI {
		if b.Name == name {
			return b, true
		}
	}
	for _, b := range Extra {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Build synthesises the stand-in circuit at full published size.
func (b Benchmark) Build() *circuit.Circuit {
	return b.BuildScaled(1)
}

// BuildScaled synthesises the stand-in with the gate count divided by
// scale (minimum 20 gates); inputs and outputs are scaled gently
// (divided by sqrt-ish factors, floored) so the interface stays wide
// relative to the logic, but CI runs stay fast. scale=1 reproduces the
// published dimensions exactly.
func (b Benchmark) BuildScaled(scale int) *circuit.Circuit {
	if scale < 1 {
		scale = 1
	}
	gates := b.Gates / scale
	if gates < 20 {
		gates = 20
	}
	in, out := b.Inputs, b.Outputs
	if scale > 1 {
		// Halve interface widths once for any scaling, keeping at
		// least 5 inputs / 2 outputs; keeps output-BER statistics
		// meaningful while shrinking oracle sampling cost.
		in = max(5, b.Inputs/2)
		out = max(2, b.Outputs/2)
	}
	// Deep scaling can push the interface beyond the logic: every
	// output needs a distinct driver gate, and forcing more inputs
	// than gates leaves inputs dangling.
	if out > gates/2 {
		out = max(2, gates/2)
	}
	if in > gates {
		in = max(5, gates)
	}
	name := b.Name
	if scale > 1 {
		name = fmt.Sprintf("%s-s%d", b.Name, scale)
	} else {
		name = b.Name + "-syn"
	}
	return Random(name, in, gates, out, b.Seed)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
