package main

import (
	"context"
	"math"
	"testing"
	"time"

	"statsat/internal/gen"
	"statsat/internal/oracle"
	"statsat/internal/trace"
)

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func at(t float64, ev trace.Event) stamped { return stamped{T: ms(t), Ev: ev} }

func snap(conflicts int64) *trace.SolverStats {
	return &trace.SolverStats{Vars: 100, Clauses: 300, Conflicts: conflicts, Propagations: 10 * conflicts, Decisions: 2 * conflicts}
}

// statsatStream is one StatSAT attack: a DIP iteration with two oracle
// calls, a repeat iteration that forks, the final UNSAT iteration, and
// an eval phase with one oracle call.
func statsatStream() ([]stamped, []oracleCall) {
	evs := []stamped{
		at(0, trace.Event{Type: trace.AttackStart, Instance: -1}),
		at(10, trace.Event{Type: trace.IterStart, Instance: 0, Iter: 1, Solver: snap(0)}),
		at(80, trace.Event{Type: trace.DIPFound, Instance: 0, Iter: 1, DIP: &trace.DIPInfo{Candidates: 100}}),
		at(81, trace.Event{Type: trace.BitsGated, Instance: 0, Iter: 1}),
		at(85, trace.Event{Type: trace.IterEnd, Instance: 0, Iter: 1, Status: "dip", Solver: snap(5)}),
		at(90, trace.Event{Type: trace.IterStart, Instance: 0, Iter: 2, Solver: snap(5)}),
		at(120, trace.Event{Type: trace.Fork, Instance: 0, Iter: 2, Fork: &trace.ForkInfo{Child: 1}}),
		at(125, trace.Event{Type: trace.IterEnd, Instance: 0, Iter: 2, Status: "repeat", Solver: snap(7)}),
		at(130, trace.Event{Type: trace.IterStart, Instance: 0, Iter: 3, Solver: snap(7)}),
		at(180, trace.Event{Type: trace.KeyAccepted, Instance: 0}),
		at(190, trace.Event{Type: trace.IterEnd, Instance: 0, Iter: 3, Status: "unsat", Solver: snap(27)}),
		at(200, trace.Event{Type: trace.AttackEnd, Instance: -1, Totals: &trace.TotalsInfo{Keys: 1}}),
		at(210, trace.Event{Type: trace.EvalStart, Instance: -1}),
		at(400, trace.Event{Type: trace.EvalEnd, Instance: -1}),
	}
	calls := []oracleCall{
		{Start: ms(30), End: ms(40), Queries: 512},
		{Start: ms(41), End: ms(50), Queries: 512},
		{Start: ms(220), End: ms(300), Queries: 1000},
	}
	return evs, calls
}

func near(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %.6f, want %.6f", what, got, want)
	}
}

func TestFoldSelfTimes(t *testing.T) {
	evs, calls := statsatStream()
	l := fold(evs, calls)
	near(t, "build", l.BuildS, 0.010)
	// 20 ms before the first call of iteration 1, plus the whole
	// call-free iteration 3.
	near(t, "solve", l.SolveS, 0.020+0.060)
	near(t, "final unsat", l.FinalUnsatS, 0.060)
	near(t, "sample", l.SampleS, 0.020)
	near(t, "post-sample", l.PostSampleS, 0.030)
	near(t, "repeat", l.RepeatS, 0.035)
	near(t, "attack", l.AttackS, 0.200)
	// Uncovered: 80-85 (gating), 85-90 and 125-130 (scheduler),
	// 190-200 (result collection).
	near(t, "unattributed", l.UnattributedS, 0.025)
	near(t, "eval", l.EvalS, 0.190)
	near(t, "eval sample", l.EvalSampleS, 0.080)
	near(t, "key sim", l.KeySimS, 0.110)
	if l.Queries != 1024 || l.EvalQueries != 1000 {
		t.Errorf("queries = %d/%d, want 1024/1000", l.Queries, l.EvalQueries)
	}
	if l.Iterations != 3 || l.DIPs != 1 || l.Repeats != 1 || l.Forks != 1 || l.KeysEnumerated != 100 {
		t.Errorf("counts = %+v", l)
	}
	if l.Conflicts != 27 || l.SolveConflicts != 25 {
		t.Errorf("conflicts = %d (solve %d), want 27 (25)", l.Conflicts, l.SolveConflicts)
	}
	if l.FinalVars != 100 || l.FinalClauses != 300 {
		t.Errorf("final miter = %d vars / %d clauses", l.FinalVars, l.FinalClauses)
	}
	if l.Attacks != 1 || l.Failed != 0 {
		t.Errorf("attacks/failed = %d/%d, want 1/0", l.Attacks, l.Failed)
	}
}

func TestFoldDeadIterationEndsPostSampleAtDeath(t *testing.T) {
	evs := []stamped{
		at(0, trace.Event{Type: trace.AttackStart, Instance: -1}),
		at(0, trace.Event{Type: trace.IterStart, Instance: 0, Iter: 1}),
		at(40, trace.Event{Type: trace.InstanceDead, Instance: 0}),
		at(45, trace.Event{Type: trace.IterEnd, Instance: 0, Iter: 1, Status: "dead"}),
		at(50, trace.Event{Type: trace.AttackEnd, Instance: -1, Totals: &trace.TotalsInfo{Keys: 0}}),
	}
	l := fold(evs, []oracleCall{{Start: ms(10), End: ms(20), Queries: 64}})
	near(t, "solve", l.SolveS, 0.010)
	near(t, "sample", l.SampleS, 0.010)
	near(t, "post-sample", l.PostSampleS, 0.020)
	near(t, "unattributed", l.UnattributedS, 0.010)
	if l.Dead != 1 || l.Failed != 1 {
		t.Errorf("dead/failed = %d/%d, want 1/1 (an attack without keys failed)", l.Dead, l.Failed)
	}
}

func TestFoldCountsFailures(t *testing.T) {
	attackOf := func(t0 float64, end *trace.TotalsInfo, interrupted bool) []stamped {
		s := []stamped{
			at(t0, trace.Event{Type: trace.AttackStart, Instance: -1}),
			at(t0+1, trace.Event{Type: trace.IterStart, Instance: 0, Iter: 1}),
			at(t0+2, trace.Event{Type: trace.IterEnd, Instance: 0, Iter: 1, Status: "unsat"}),
		}
		if interrupted {
			s = append(s, at(t0+3, trace.Event{Type: trace.Interrupted, Instance: -1}))
		}
		if end != nil {
			s = append(s, at(t0+4, trace.Event{Type: trace.AttackEnd, Instance: -1, Totals: end}))
		}
		return s
	}
	var evs []stamped
	evs = append(evs, attackOf(0, &trace.TotalsInfo{Keys: 2}, false)...)                   // ok
	evs = append(evs, attackOf(10, &trace.TotalsInfo{Keys: 1, Truncated: true}, false)...) // iteration cap
	evs = append(evs, attackOf(20, &trace.TotalsInfo{Keys: 1}, true)...)                   // interrupted
	evs = append(evs, attackOf(30, &trace.TotalsInfo{Keys: 0}, false)...)                  // no key
	evs = append(evs, attackOf(40, &trace.TotalsInfo{Keys: 1}, false)...)                  // ok
	evs = append(evs, attackOf(50, nil, false)...)                                         // errored, no attack_end
	l := fold(evs, nil)
	if l.Attacks != 6 || l.Failed != 4 {
		t.Errorf("attacks/failed = %d/%d, want 6/4", l.Attacks, l.Failed)
	}
	// The errored attack's phase never closed, so only five attack
	// phases of 4 ms count, each 1 ms build + 1 ms solve.
	near(t, "attack", l.AttackS, 5*0.004)
	near(t, "unattributed", l.UnattributedS, 5*0.002)
}

func TestLayersAddIsFoldOfConcatenation(t *testing.T) {
	evs, calls := statsatStream()
	var sum layers
	sum.add(fold(evs, calls))
	sum.add(fold(evs, calls))
	one := fold(evs, calls)
	if sum.Attacks != 2 || sum.Queries != 2*one.Queries {
		t.Fatalf("sum = %+v", sum)
	}
	near(t, "unattributed", sum.UnattributedS, 2*one.UnattributedS)
}

// TestTimedOracleIsTransparent samples a probabilistic chip directly
// and through the wrapper with the same seed: the probabilities, query
// counts and noise position must match, and the log must account for
// every query.
func TestTimedOracleIsTransparent(t *testing.T) {
	c := gen.C17()
	plain := oracle.NewProbabilistic(c, nil, 0.05, 7)
	log := &callLog{clk: clock{base: time.Now()}}
	w, err := timeOracle(oracle.NewProbabilistic(c, nil, 0.05, 7), log)
	if err != nil {
		t.Fatal(err)
	}
	x := []bool{true, false, true, true, false}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		a := oracle.SignalProbs(ctx, plain, x, 1000)
		b := oracle.SignalProbs(ctx, w, x, 1000)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("round %d output %d: %v direct, %v wrapped", i, j, a[j], b[j])
			}
		}
	}
	if plain.Queries() != w.Queries() || plain.NoiseDraws() != w.(oracle.NoiseCounter).NoiseDraws() {
		t.Fatalf("queries %d/%d, noise draws %d/%d", plain.Queries(), w.Queries(),
			plain.NoiseDraws(), w.(oracle.NoiseCounter).NoiseDraws())
	}
	var logged int64
	for _, c := range log.snapshot() {
		if c.End < c.Start {
			t.Fatalf("call ends before it starts: %+v", c)
		}
		logged += c.Queries
	}
	if logged != w.Queries() {
		t.Fatalf("log holds %d queries, chip counted %d", logged, w.Queries())
	}

	det, err := timeOracle(oracle.NewDeterministic(c, nil), log)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := det.(oracle.BlockQuerier); ok {
		t.Fatal("wrapper of a scalar chip must not offer blocked sampling")
	}
}

func TestRoundsRunsOneWholeRoundAndStops(t *testing.T) {
	n := 0
	err := rounds(time.Millisecond, 3, func(r, j int) error {
		if r != 0 || j != n {
			t.Errorf("attack (%d, %d) out of order", r, j)
		}
		n++
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("rounds ran %d attacks (err %v), want one round of 3", n, err)
	}
}

func TestMedian(t *testing.T) {
	near(t, "even", median([]float64{4, 1, 3, 2}), 2.5)
	near(t, "odd", median([]float64{5, 1, 3}), 3)
	if median(nil) != 0 {
		t.Fatal("median of nothing")
	}
}
