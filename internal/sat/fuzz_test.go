package sat

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseDIMACS exercises the DIMACS reader for panics; any formula
// it accepts must solve without crashing, and a Sat verdict's model
// must actually satisfy every retained clause.
func FuzzParseDIMACS(f *testing.F) {
	seeds := []string{
		"p cnf 3 2\n1 -3 0\n2 3 -1 0\n",
		"p cnf 1 2\n1 0\n-1 0\n",
		"c comment\n1 2 0",
		"p cnf 0 0\n",
		"%\n0\n",
		"p cnf 2 1\n1 -2",
		"1 1 1 0\n-1 0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		s, err := ParseDIMACS(strings.NewReader(src))
		if err != nil {
			return
		}
		if s.NumVars() > 1<<16 {
			return // header-declared monsters: skip solving
		}
		clauses := s.Clauses()
		s.ConflictBudget = 2000
		if s.Solve() != Sat {
			return
		}
		for _, c := range clauses {
			ok := false
			for _, l := range c {
				if s.ModelLit(l) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("model does not satisfy clause %v", c)
			}
		}
	})
}

// FuzzSolveIncremental decodes bytes into an incremental session over
// at most 12 variables: AddClause, Solve under assumptions and Clone,
// interleaved over up to four solvers (a Clone forks the current one).
// Every Sat model must satisfy every clause its solver was given and
// the assumptions, and every verdict must agree with brute force.
func FuzzSolveIncremental(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 3, 1, 1, 4, 2, 0, 0, 2, 1, 1, 1, 2})
	f.Add([]byte{12, 0, 3, 5, 9, 16, 0, 3, 4, 10, 17, 2, 1, 7, 1, 0, 1, 6, 1, 1, 8, 2, 0, 1, 2})
	f.Add([]byte{1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		n := 1 + next()%12
		lit := func() Lit {
			b := next()
			return MkLit(Var((b>>1)%n), b&1 == 1)
		}
		type session struct {
			s       *Solver
			clauses [][]Lit
		}
		first := New()
		first.NewVars(n)
		ss := []session{{s: first}}
		cur := 0
		for pos < len(data) {
			op := next()
			if len(ss) > 1 && op&4 != 0 {
				cur = (op >> 3) % len(ss)
			}
			x := &ss[cur]
			switch op % 4 {
			case 0, 3: // AddClause
				c := make([]Lit, 1+next()%4)
				for i := range c {
					c[i] = lit()
				}
				x.clauses = append(x.clauses, c)
				x.s.AddClause(c...)
			case 1: // Solve under assumptions
				as := make([]Lit, next()%3)
				for i := range as {
					as[i] = lit()
				}
				got := x.s.Solve(as...)
				all := slices.Clone(x.clauses)
				for _, a := range as {
					all = append(all, []Lit{a})
				}
				if want := bruteForce(n, all); (got == Sat) != want || got == Unknown {
					t.Fatalf("solver %d: %v under %v, brute force sat=%v, clauses %v", cur, got, as, want, x.clauses)
				}
				if got != Sat {
					continue
				}
				for _, c := range all {
					if !slices.ContainsFunc(c, x.s.ModelLit) {
						t.Fatalf("solver %d: model violates %v", cur, c)
					}
				}
			case 2: // Clone
				if len(ss) < 4 {
					ss = append(ss, session{s: x.s.Clone(), clauses: slices.Clone(x.clauses)})
					cur = len(ss) - 1
				}
			}
		}
	})
}
