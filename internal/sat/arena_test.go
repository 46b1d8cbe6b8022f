package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// checkArena verifies the clause arena's invariants: every listed
// clause is live and fills the arena together with the deleted words,
// every watcher points at a live clause that watches the literal's
// complement, and every assigned variable's reason is a live clause
// whose first literal is the variable's true literal.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	live := map[cref]bool{}
	words := 0
	for _, c := range append(slices.Clone(s.clauses), s.learnts...) {
		if s.arena[c+hdrSize]&1 != 0 {
			t.Fatalf("listed clause %d is deleted", c)
		}
		if s.clauseLen(c) < 2 {
			t.Fatalf("clause %d has %d literals", c, s.clauseLen(c))
		}
		live[c] = true
		words += clauseHdr + s.clauseLen(c)
	}
	if words+s.wasted != len(s.arena) {
		t.Fatalf("live %d + wasted %d words != arena %d", words, s.wasted, len(s.arena))
	}
	watchers := 0
	for l, ws := range s.watches {
		for _, w := range ws {
			if !live[w.c] {
				t.Fatalf("watcher of %v points at dead clause %d", Lit(l), w.c)
			}
			if lits := s.lits(w.c); lits[0] != Lit(l).Not() && lits[1] != Lit(l).Not() {
				t.Fatalf("clause %d %v does not watch %v", w.c, lits, Lit(l).Not())
			}
			watchers++
		}
	}
	if watchers != 2*len(live) {
		t.Fatalf("%d watchers for %d clauses", watchers, len(live))
	}
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		if r == crefUndef {
			continue
		}
		if !live[r] {
			t.Fatalf("reason of %v is dead clause %d", l, r)
		}
		if s.lits(r)[0] != l {
			t.Fatalf("reason %v of %v does not imply it", s.lits(r), l)
		}
	}
}

// rootReasons returns the clause reason of every root-level
// assignment implied by a clause, in trail order.
func rootReasons(s *Solver) []cref {
	var out []cref
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 && s.reason[l.Var()] != crefUndef {
			out = append(out, s.reason[l.Var()])
		}
	}
	return out
}

// randomFormula builds a solver over n variables with m random
// 3-clauses.
func randomFormula(rng *rand.Rand, n, m int) *Solver {
	s := New()
	s.NewVars(n)
	for j := 0; j < m; j++ {
		s.AddClause(random3(rng, n)...)
	}
	return s
}

// TestCompactionKeepsSearch runs twin solvers on the same incremental
// sequence. One compacts its arena at every restart boundary, in the
// middle of a search with the assumption levels still on the trail;
// the other only when reduceDB's rule fires. Every verdict and every
// Statistics counter must stay equal.
func TestCompactionKeepsSearch(t *testing.T) {
	const n = 190
	build := func() *Solver { return randomFormula(rand.New(rand.NewSource(5)), n, 4*n) }
	plain, forced := build(), build()
	plain.SetImporter(func() []Import { return nil })
	moved := 0
	forced.SetImporter(func() []Import {
		if forced.wasted > 0 {
			moved++
		}
		forced.compact()
		checkArena(t, forced)
		return nil
	})
	rng := rand.New(rand.NewSource(6))
	for step := 0; step < 6; step++ {
		extra := random3(rng, n)
		plain.AddClause(extra...)
		forced.AddClause(extra...)
		a := MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
		gp, gf := plain.Solve(a), forced.Solve(a)
		if gp != gf || plain.Stats != forced.Stats {
			t.Fatalf("step %d: plain %v %+v, compacted %v %+v", step, gp, plain.Stats, gf, forced.Stats)
		}
		if gp == Sat && observe(plain, gp) != observe(forced, gf) {
			t.Fatalf("step %d: models differ", step)
		}
	}
	if moved == 0 || forced.Stats.Removed == 0 {
		t.Fatalf("no compaction reclaimed a deleted clause (moved %d, removed %d)", moved, forced.Stats.Removed)
	}
}

// TestCompactionAfterForkKeepsRootReasons forks a searched solver
// into twin clones and pins each fork with units that imply further
// root-level assignments through clauses added after the search, so
// those reasons sit behind deleted learnts in the arena. Compacting
// one twin moves them; they must be forwarded, and the twins must
// keep searching identically.
func TestCompactionAfterForkKeepsRootReasons(t *testing.T) {
	const n = 190
	rng := rand.New(rand.NewSource(3))
	base := randomFormula(rng, n, 426*n/100)
	base.Solve()
	if base.Stats.Removed == 0 || base.wasted == 0 {
		t.Fatal("base search left no deleted learnt clause")
	}
	checked := 0
	for fork := 0; fork < 4; fork++ {
		plain, compacted := base.Clone(), base.Clone()
		for _, x := range []*Solver{plain, compacted} {
			x.SetEpoch(int32(fork + 1))
		}
		for k := 0; k < 3; k++ {
			pin := MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
			implied := MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
			for _, x := range []*Solver{plain, compacted} {
				x.AddClause(pin.Not(), implied)
				x.AddClause(pin)
			}
		}
		if !compacted.Okay() {
			continue
		}
		checked++
		before := rootReasons(compacted)
		compacted.compact()
		checkArena(t, compacted)
		if slices.Equal(before, rootReasons(compacted)) {
			t.Fatalf("fork %d: compaction moved no root reason (%v)", fork, before)
		}
		if !slices.Equal(plain.trail, compacted.trail) || !slices.Equal(plain.vepoch, compacted.vepoch) {
			t.Fatalf("fork %d: root assignments or watermarks differ", fork)
		}
		a := MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
		gp, gc := plain.Solve(a), compacted.Solve(a)
		if gp != gc || plain.Stats != compacted.Stats {
			t.Fatalf("fork %d: plain %v %+v, compacted %v %+v", fork, gp, plain.Stats, gc, compacted.Stats)
		}
		checkArena(t, compacted)
	}
	if checked == 0 {
		t.Fatal("every fork was inconsistent at the root")
	}
}

// TestCloneAllocsIndependentOfClauses pins Clone's allocation count:
// a flat copy of the arena, the clause lists and one watcher slab, so
// ten times the clauses over the same variables costs no more
// allocations.
func TestCloneAllocsIndependentOfClauses(t *testing.T) {
	const n = 100
	allocs := func(m int) float64 {
		s := randomFormula(rand.New(rand.NewSource(3)), n, m)
		return testing.AllocsPerRun(10, func() { s.Clone() })
	}
	small, large := allocs(50), allocs(500)
	if large != small {
		t.Fatalf("Clone allocations: %v at 50 clauses, %v at 500", small, large)
	}
	if small > 20 {
		t.Fatalf("Clone makes %v allocations, want a fixed handful", small)
	}
}

// TestSolveUnderAssumptionZeroAllocs pins the key-enumeration path: a
// Solve under one assumption that propagates to a model without a
// conflict allocates nothing once the solver's buffers are warm.
func TestSolveUnderAssumptionZeroAllocs(t *testing.T) {
	s, v := mk(64)
	for i := 0; i+1 < len(v); i++ {
		s.AddClause(NegLit(v[i]), PosLit(v[i+1])) // x_i → x_{i+1}
	}
	a := PosLit(v[0])
	for i := 0; i < 3; i++ {
		if s.Solve(a) != Sat {
			t.Fatal("chain under x0 must be Sat")
		}
	}
	conflicts := s.Stats.Conflicts
	allocs := testing.AllocsPerRun(20, func() { s.Solve(a) })
	if s.Stats.Conflicts != conflicts {
		t.Fatal("the measured solves hit a conflict")
	}
	if allocs != 0 {
		t.Fatalf("Solve under one assumption allocates %v times, want 0", allocs)
	}
}
