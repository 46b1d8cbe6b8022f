package cnf

import (
	"context"
	"hash/fnv"
	"math/rand"
	"testing"

	"statsat/internal/gen"
	"statsat/internal/lock"
)

// enumDIPs is how many DIP copies the enumeration fixtures record: about
// what a StatSAT instance on c880/RLL-64 holds midway through an attack.
const enumDIPs = 40

// enumKeySolver builds the key solver of StatSAT's N_satis step
// (§IV-C) for c880/RLL-64 lock seed 1: enumDIPs copies at seeded
// random inputs, each with a seeded random half of its output bits
// pinned to the unlocked circuit's response, as a noisy attack pins
// only the bits it trusts.
func enumKeySolver(tb testing.TB) *KeySolver {
	tb.Helper()
	bm, ok := gen.ByName("c880")
	if !ok {
		tb.Fatal("c880 benchmark missing")
	}
	l, err := lock.RLL(bm.Build(), 64, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ks := NewKeySolver(l.Circuit)
	for d := 0; d < enumDIPs; d++ {
		x := l.Circuit.RandomInputs(rng)
		y := l.Circuit.Eval(x, l.Key, nil)
		outs, err := ks.AddDIPCopy(x)
		if err != nil {
			tb.Fatal(err)
		}
		for j, w := range outs {
			if rng.Intn(2) == 0 && !Equal(ks.S, w, y[j]) {
				tb.Fatal("pinning a correct output bit made the key solver inconsistent")
			}
		}
	}
	return ks
}

// TestEnumerateKeysGolden pins the exact N_satis enumeration on a
// realistic key solver: the hash of the ordered key list and the
// solver's decision, propagation and conflict counters. StatSAT's BER
// estimate (eq. 4) averages over these keys, so a solver change that
// claims to keep the search must leave every constant here as it is;
// a change of heap tie-breaking moves them.
func TestEnumerateKeysGolden(t *testing.T) {
	const (
		wantKeys  = 100
		wantHash  = uint64(0x8c0be635010b1871)
		wantDec   = int64(824)
		wantProps = int64(165961)
		wantConfl = int64(69)
	)
	ks := enumKeySolver(t)
	keys := ks.EnumerateKeys(context.Background(), wantKeys)
	h := fnv.New64a()
	for _, k := range keys {
		for _, b := range k {
			if b {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	st := ks.S.Stats
	if len(keys) != wantKeys || h.Sum64() != wantHash ||
		st.Decisions != wantDec || st.Propagations != wantProps || st.Conflicts != wantConfl {
		t.Errorf("enumeration = %d keys, hash %#x, decisions %d, propagations %d, conflicts %d;\n"+
			"want %d keys, hash %#x, decisions %d, propagations %d, conflicts %d",
			len(keys), h.Sum64(), st.Decisions, st.Propagations, st.Conflicts,
			wantKeys, wantHash, wantDec, wantProps, wantConfl)
	}
}

// BenchmarkEnumerateKeys times StatSAT's N_satis step on its own: 100
// keys from a fresh clone of the c880/RLL-64 key solver, the clone made
// outside the timer.
func BenchmarkEnumerateKeys(b *testing.B) {
	ks := enumKeySolver(b)
	b.ReportAllocs()
	keys := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := ks.Clone()
		b.StartTimer()
		keys += len(c.EnumerateKeys(context.Background(), 100))
	}
	b.ReportMetric(float64(keys)/float64(b.N), "keys/op")
}
