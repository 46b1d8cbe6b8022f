package circuit_test

import (
	"math/rand"
	"testing"

	"statsat/internal/circuit"
	"statsat/internal/gen"
	"statsat/internal/lock"
)

// TestEvalNoisyBlockIntoZeroAllocs pins a scratch-reuse contract of
// docs/PERFORMANCE.md §2: with a cap-sufficient out and a reused
// BlockScratch, a full-width blocked noisy pass allocates nothing.
func TestEvalNoisyBlockIntoZeroAllocs(t *testing.T) {
	bm, _ := gen.ByName("c3540")
	rng := rand.New(rand.NewSource(1))
	l, err := lock.RLL(bm.BuildScaled(8), 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := l.Circuit
	const words = circuit.MaxBlockWords
	pi := c.RandomInputs(rng)
	out := make([]uint64, c.NumPOs()*words)
	var scratch circuit.BlockScratch
	allocs := testing.AllocsPerRun(20, func() {
		out = c.EvalNoisyBlockInto(out, pi, l.Key, 0.0125, rng, words, &scratch)
	})
	if allocs != 0 {
		t.Errorf("EvalNoisyBlockInto at W=%d: %v allocs per call, want 0", words, allocs)
	}
}
