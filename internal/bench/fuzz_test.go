package bench

import "testing"

// FuzzParse exercises the .bench parser — the one every tool, the
// statsatd upload path and statsat.ParseBench use — for panics and
// invariant violations on arbitrary input: an accepted netlist must
// validate, and Write→Parse→Write must reproduce the same text and
// circuit name. The seed corpus covers the statement grammar; run
// `go test -run '^$' -fuzz '^FuzzParse$' ./internal/bench` for a real
// fuzzing session (the seed corpus alone runs in every `go test`).
func FuzzParse(f *testing.F) {
	seeds := []string{
		c17Bench,
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
		"INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n",
		"q = DFF(d)\nd = NOT(q)\nOUTPUT(q)\nINPUT(x)\n",
		"# comment\n\nINPUT(a)\n",
		"y = AND(a, b, c, d)\n",
		"INPUT(a)\nOUTPUT(y)\ny = MUX(a, a, a)\n",
		"p cnf garbage\n",
		"INPUT(é)\nOUTPUT(é)\n",
		"y = NAND(",
		"=(",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseString(src)
		if err != nil {
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("parser returned invalid circuit: %v", verr)
		}
		// Write→Parse→Write is a fixpoint: same text, same name.
		text := Format(c)
		back, rerr := ParseString(text)
		if rerr != nil {
			t.Fatalf("round-trip failed: %v\n%s", rerr, text)
		}
		if back.Name != c.Name {
			t.Fatalf("round trip renamed %q to %q\n%s", c.Name, back.Name, text)
		}
		if again := Format(back); again != text {
			t.Fatalf("Write→Parse→Write changed the text:\n--- first ---\n%s--- second ---\n%s", text, again)
		}
	})
}
