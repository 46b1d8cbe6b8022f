package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
)

// searchStep is what one Solve call exposes of the search: the
// verdict, the cumulative counters and a hash of the model.
type searchStep struct {
	Status                                       Status
	Dec, Props, Confl, Restarts, Learnt, Removed int64
	Model                                        uint64 // FNV-1a of the model bits; 0 unless Sat
}

func (st searchStep) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %d, %#x}",
		st.Status, st.Dec, st.Props, st.Confl, st.Restarts, st.Learnt, st.Removed, st.Model)
}

func observe(s *Solver, status Status) searchStep {
	st := searchStep{
		Status: status, Dec: s.Stats.Decisions, Props: s.Stats.Propagations,
		Confl: s.Stats.Conflicts, Restarts: s.Stats.Restarts,
		Learnt: s.Stats.Learnt, Removed: s.Stats.Removed,
	}
	if status == Sat {
		h := fnv.New64a()
		for v := 0; v < s.NumVars(); v++ {
			if s.ModelValue(Var(v)) {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		st.Model = h.Sum64()
	}
	return st
}

// random3 draws a clause of three random literals over n variables.
func random3(rng *rand.Rand, n int) []Lit {
	return []Lit{
		MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
		MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
		MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1),
	}
}

// goldenPigeonhole solves PHP(8,7) (Unsat) and PHP(8,8) (Sat).
func goldenPigeonhole() []searchStep {
	var out []searchStep
	for _, holes := range []int{7, 8} {
		s := New()
		pigeonhole(s, 8, holes)
		out = append(out, observe(s, s.Solve()))
	}
	return out
}

// goldenIncremental grows a random 3-SAT formula between Solve calls
// under random assumptions, clones it halfway and drives parent and
// clone on with different clause streams.
func goldenIncremental() []searchStep {
	const n = 120
	rng := rand.New(rand.NewSource(2026))
	s := New()
	s.NewVars(n)
	for j := 0; j < 460; j++ {
		s.AddClause(random3(rng, n)...)
	}
	assume := func() []Lit {
		a := make([]Lit, 2)
		for i := range a {
			a[i] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
		}
		return a
	}
	var out []searchStep
	step := func(x *Solver) {
		for j := 0; j < 6; j++ {
			x.AddClause(random3(rng, n)...)
		}
		out = append(out, observe(x, x.Solve(assume()...)))
	}
	for i := 0; i < 4; i++ {
		step(s)
	}
	c := s.Clone()
	for i := 0; i < 4; i++ {
		step(s)
		step(c)
	}
	return out
}

// goldenReduce solves random 3-SAT formulas at the phase transition,
// large enough that every solve runs reduceDB several times.
func goldenReduce() []searchStep {
	const n = 190
	rng := rand.New(rand.NewSource(31337))
	var out []searchStep
	for trial := 0; trial < 3; trial++ {
		s := New()
		s.NewVars(n)
		for j := 0; j < 426*n/100; j++ {
			s.AddClause(random3(rng, n)...)
		}
		out = append(out, observe(s, s.Solve()))
	}
	return out
}

// TestSearchIdentityGolden pins the exact search trajectory of fixed,
// seeded formulas: verdicts, decision/propagation/conflict/restart/
// learnt/removed counters and model hashes. Any change to the decision
// order, the heap, restarts, reduceDB or watch-list order moves these
// numbers; a change of memory layout must not.
func TestSearchIdentityGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func() []searchStep
		want []searchStep
	}{
		{"pigeonhole", goldenPigeonhole, []searchStep{
			{2, 4939, 46696, 4073, 21, 4068, 3252, 0x0},
			{1, 29, 64, 0, 0, 0, 0, 0x72ff5af411ef001d},
		}},
		{"incremental", goldenIncremental, []searchStep{
			{1, 116, 2332, 82, 0, 82, 0, 0x6db230006d24cd10},
			{1, 285, 5735, 205, 1, 205, 0, 0xa2259829b22fae65},
			{2, 410, 8365, 306, 2, 306, 0, 0x0},
			{1, 469, 9603, 341, 2, 341, 0, 0xb691560a58845ed4},
			{1, 551, 11130, 398, 2, 398, 0, 0xb706b7fdc700cb3b},
			{1, 487, 9723, 341, 2, 341, 0, 0xb691560a58845ed4},
			{1, 873, 18037, 643, 4, 643, 0, 0x78b9c0f2f0d5e4eb},
			{1, 515, 10143, 349, 2, 349, 0, 0xfc356f906a8da88a},
			{1, 899, 18426, 652, 4, 652, 0, 0x24a9e20aca0e70a7},
			{2, 927, 19141, 681, 4, 681, 0, 0x0},
			{1, 922, 18546, 652, 4, 652, 0, 0x24a9e20aca0e70a7},
			{2, 1048, 21697, 778, 4, 778, 0, 0x0},
		}},
		{"reduce", goldenReduce, []searchStep{
			{1, 2958, 89499, 2399, 13, 2399, 1321, 0xa1599243a626a08a},
			{2, 9705, 292294, 8009, 30, 7998, 5986, 0x0},
			{1, 7308, 219296, 5975, 29, 5975, 4866, 0xa89d3279ef50c4b5},
		}},
	}
	for _, tc := range cases {
		got := tc.run()
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d steps, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range got {
			if i < len(tc.want) && got[i] == tc.want[i] {
				continue
			}
			var b strings.Builder
			for _, st := range got {
				fmt.Fprintf(&b, "\t%v,\n", st)
			}
			t.Errorf("%s: step %d = %v; whole trajectory:\n%s", tc.name, i, got[i], b.String())
			break
		}
	}
}
