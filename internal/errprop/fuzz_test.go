package errprop

import (
	"math"
	"testing"

	"statsat/internal/circuit"
)

// fuzzEps are the gate error probabilities the fuzz target draws from:
// 0 keeps every wire's error probability exactly 0, 1 drives wires to
// exactly 1 (and their inverting successors back to 0), 0.5 holds
// every gate at or near 0.5, and 1e-3 gives the attack's generic case.
var fuzzEps = [...]float64{0, 1e-3, 0.5, 1}

// fuzzTypes are the gate types a fuzz circuit is built from; source
// types become constants with no fanin.
var fuzzTypes = [...]circuit.GateType{
	circuit.Buf, circuit.Not, circuit.And, circuit.Nand, circuit.Or,
	circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Mux, circuit.Const0,
	circuit.Const1,
}

// decodeFuzzCircuit turns data into a small circuit plus an input, a
// key and a gate error probability. Byte 0 picks eps and the PI and
// key counts, bytes 1 and 2 the input and key bits; then each gate
// takes a type byte (whose high bits give a 1-4 fanin count for the
// n-ary types) followed by one byte per fanin, which names any
// earlier gate, so the netlist is acyclic by construction.
func decodeFuzzCircuit(data []byte) (c *circuit.Circuit, x, k []bool, eps float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	head := next()
	eps = fuzzEps[head&3]
	nIn, nKey := 1+int(head>>2&3), int(head>>4&3)
	xb, kb := next(), next()
	c = circuit.New("fuzz")
	for i := 0; i < nIn; i++ {
		c.AddInput("")
		x = append(x, xb>>uint(i)&1 == 1)
	}
	for i := 0; i < nKey; i++ {
		c.AddKey("")
		k = append(k, kb>>uint(i)&1 == 1)
	}
	for len(data) > 0 && len(c.Gates) < 64 {
		tb := next()
		t := fuzzTypes[int(tb)%len(fuzzTypes)]
		n := 1 + int(tb>>4&3)
		switch {
		case t.IsInputType():
			n = 0
		case t == circuit.Buf || t == circuit.Not:
			n = 1
		case t == circuit.Mux:
			n = 3
		}
		fanin := make([]int, n)
		for i := range fanin {
			fanin[i] = int(next()) % len(c.Gates)
		}
		c.AddGate(t, "", fanin...)
	}
	c.AddOutput(len(c.Gates)-1, "")
	return c, x, k, eps
}

// refWireErrorProbs is the estimator's propagation with every gate,
// whatever its fanin, taken through the generic 2^n flip-pattern loop:
// the reference the truth-table kernels must match bit for bit.
func refWireErrorProbs(c *circuit.Circuit, x, k []bool, eps float64) []float64 {
	vals := c.EvalWires(x, k, nil)
	p := make([]float64, c.NumGates())
	var faninVals [MaxEnumFanin]bool
	var faninErrs [MaxEnumFanin]float64
	var flipped [MaxEnumFanin]bool
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		if g.Type.IsInputType() {
			continue
		}
		n := len(g.Fanin)
		for i, f := range g.Fanin {
			faninVals[i] = vals[f]
			faninErrs[i] = p[f]
		}
		correct := vals[id]
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
			if prob == 0 {
				continue
			}
			if g.Type.Eval(flipped[:n]) != correct {
				q += prob
			}
		}
		p[id] = q*(1-eps) + (1-q)*eps
	}
	return p
}

// FuzzWireErrorProbs checks that the estimator's per-wire error
// probabilities are bitwise equal to the generic flip-pattern loop's
// on small random circuits of 1-4-input gates, MUXes and constants.
func FuzzWireErrorProbs(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x00, 0x02, 0x00, 0x00})
	f.Add([]byte{0x07, 0x05, 0x00, 0x12, 0x00, 0x01, 0x01, 0x02, 0x22, 0x03, 0x00, 0x01})
	f.Add([]byte{0x1b, 0xff, 0x03, 0x06, 0x00, 0x04, 0x08, 0x01, 0x02, 0x03, 0x36, 0x05, 0x06, 0x07, 0x00})
	f.Add([]byte{0x2e, 0xaa, 0x01, 0x01, 0x00, 0x04, 0x04, 0x03, 0x10, 0x05, 0x06, 0x29, 0x06, 0x07, 0x07, 0x03})
	f.Add([]byte{0x3f, 0x3c, 0x05, 0x0a, 0x09, 0x03, 0x07, 0x02, 0x00, 0x03, 0x11, 0x09, 0x01, 0x25, 0x0a, 0x0b, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, x, k, eps := decodeFuzzCircuit(data)
		got, err := NewEstimator(c).WireErrorProbs(x, k, eps)
		if err != nil {
			t.Fatal(err)
		}
		want := refWireErrorProbs(c, x, k, eps)
		for id := range want {
			if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
				t.Fatalf("eps %v: wire %d (%v, fanin %v): got %v (%#x), want %v (%#x)",
					eps, id, c.Gates[id].Type, c.Gates[id].Fanin,
					got[id], math.Float64bits(got[id]), want[id], math.Float64bits(want[id]))
			}
		}
	})
}
