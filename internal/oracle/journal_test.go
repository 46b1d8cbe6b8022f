package oracle

import (
	"context"
	"testing"

	"statsat/internal/circuit"
	"statsat/internal/gen"
)

// journalFixture builds the c17 benchmark with a fixed key and returns
// a fresh noisy oracle over it.
func journalFixture(t *testing.T) (*circuit.Circuit, []bool, func() *Probabilistic) {
	t.Helper()
	c := gen.C17()
	key := make([]bool, c.NumKeys())
	return c, key, func() *Probabilistic {
		return NewProbabilistic(c, key, 0.05, 42)
	}
}

// drive performs a deterministic mixed workload (scalar, block,
// SignalProbs) against o and returns a digest of every answer.
func drive(t *testing.T, o Oracle, nin int, upto int) [][]bool {
	t.Helper()
	ctx := context.Background()
	var out [][]bool
	x := make([]bool, nin)
	for i := 0; i < upto; i++ {
		for j := range x {
			x[j] = (i>>uint(j%8))&1 == 1
		}
		switch i % 3 {
		case 0:
			out = append(out, append([]bool(nil), o.Query(x)...))
		case 1:
			p := SignalProbs(ctx, o, x, 130)
			row := make([]bool, len(p))
			for j, v := range p {
				row[j] = v > 0.5
			}
			out = append(out, row)
		case 2:
			if bq, ok := o.(BlockQuerier); ok {
				const words = 2
				w := bq.QueryBlock(x, words)
				row := make([]bool, len(w)/words)
				for j := range row {
					row[j] = w[j*words]&1 == 1
				}
				out = append(out, row)
			}
		}
	}
	return out
}

func sameAnswers(t *testing.T, a, b [][]bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("answer counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("answer %d bit %d differs", i, j)
			}
		}
	}
}

// TestJournalResumeEquivalence is the resume-determinism kernel: a
// recorded run interrupted after k interactions, resumed on a FRESH
// oracle with the recorded tape prefix, must produce exactly the
// answers — and exactly the counters — of the uninterrupted run, for
// every cut point k.
func TestJournalResumeEquivalence(t *testing.T) {
	_, _, fresh := journalFixture(t)
	const steps = 12
	nin := fresh().NumInputs()

	// Uninterrupted control: record the full tape and answers.
	var tape []TapeRecord
	ctrl := NewJournal(fresh(), nil, func(r TapeRecord) { tape = append(tape, r) })
	want := drive(t, ctrl, nin, steps)
	wantQ, wantB := ctrl.Queries(), ctrl.(QueryBreakdown).BatchQueries()
	wantD := ctrl.(NoiseCounter).NoiseDraws()
	if wantQ == 0 || wantB == 0 || wantD == 0 {
		t.Fatalf("control consumed nothing: q=%d b=%d d=%d", wantQ, wantB, wantD)
	}

	for cut := 0; cut <= len(tape); cut += 1 + len(tape)/16 {
		prefix := tape[:cut]
		var resumedTail []TapeRecord
		res := NewJournal(fresh(), prefix, func(r TapeRecord) { resumedTail = append(resumedTail, r) })
		got := drive(t, res, nin, steps)
		sameAnswers(t, want, got)
		if q := res.Queries(); q != wantQ {
			t.Fatalf("cut %d: queries %d, want %d", cut, q, wantQ)
		}
		if b := res.(QueryBreakdown).BatchQueries(); b != wantB {
			t.Fatalf("cut %d: batch queries %d, want %d", cut, b, wantB)
		}
		if d := res.(NoiseCounter).NoiseDraws(); d != wantD {
			t.Fatalf("cut %d: noise draws %d, want %d", cut, d, wantD)
		}
		// The resumed run's recorded tail must extend the prefix into
		// the same full tape the control recorded.
		if len(prefix)+len(resumedTail) != len(tape) {
			t.Fatalf("cut %d: prefix %d + tail %d != full tape %d",
				cut, len(prefix), len(resumedTail), len(tape))
		}
		for i, r := range resumedTail {
			full := tape[cut+i]
			if r.Kind != full.Kind || r.X != full.X || r.Y != full.Y ||
				r.Queries != full.Queries || r.Draws != full.Draws {
				t.Fatalf("cut %d: resumed tail record %d differs from control", cut, i)
			}
		}
	}
}

// TestJournalScalarOracle: a journal over a Deterministic oracle must
// stay scalar-only (no BlockQuerier leaking through the wrapper) and
// still replay correctly.
func TestJournalScalarOracle(t *testing.T) {
	c, key, _ := journalFixture(t)
	fresh := func() Oracle { return NewDeterministic(c, key) }

	var tape []TapeRecord
	ctrl := NewJournal(fresh(), nil, func(r TapeRecord) { tape = append(tape, r) })
	if _, ok := ctrl.(BatchQuerier); ok {
		t.Fatal("journal over a scalar oracle must not claim BatchQuerier")
	}
	if _, ok := ctrl.(BlockQuerier); ok {
		t.Fatal("journal over a scalar oracle must not claim BlockQuerier")
	}
	want := drive(t, ctrl, ctrl.NumInputs(), 9)

	res := NewJournal(fresh(), tape[:len(tape)/2], nil)
	got := drive(t, res, res.NumInputs(), 9)
	sameAnswers(t, want, got)
	if res.Queries() != ctrl.Queries() {
		t.Fatalf("queries %d, want %d", res.Queries(), ctrl.Queries())
	}
}

// TestJournalDivergenceFreezes: serving a mismatching input mid-replay
// must drop the tape, mark the journal diverged, stop recording, and
// keep serving the live oracle.
func TestJournalDivergenceFreezes(t *testing.T) {
	_, _, fresh := journalFixture(t)
	o := fresh()
	x0 := make([]bool, o.NumInputs())
	x1 := make([]bool, o.NumInputs())
	x1[0] = true

	var tape []TapeRecord
	ctrl := NewJournal(fresh(), nil, func(r TapeRecord) { tape = append(tape, r) })
	ctrl.Query(x0)
	ctrl.Query(x0)

	recorded := 0
	res := NewJournal(fresh(), tape, func(TapeRecord) { recorded++ })
	res.Query(x0) // matches record 0
	y := res.Query(x1)
	if len(y) != o.NumOutputs() {
		t.Fatalf("diverged query returned %d bits", len(y))
	}
	j, ok := res.(*BlockJournal)
	if !ok {
		t.Fatalf("journal over Probabilistic should be a BlockJournal, got %T", res)
	}
	if !j.Diverged() {
		t.Fatal("mismatching input did not mark the journal diverged")
	}
	if recorded != 0 {
		t.Fatalf("diverged journal recorded %d new records; the tape must freeze", recorded)
	}
	res.Query(x0)
	if recorded != 0 {
		t.Fatal("journal resumed recording after divergence")
	}
}

func TestValidateTape(t *testing.T) {
	c, key, fresh := journalFixture(t)
	var tape []TapeRecord
	ctrl := NewJournal(fresh(), nil, func(r TapeRecord) { tape = append(tape, r) })
	drive(t, ctrl, ctrl.NumInputs(), 6)
	if err := ValidateTape(tape, fresh()); err != nil {
		t.Fatalf("valid tape rejected: %v", err)
	}
	if err := ValidateTape(tape, NewDeterministic(c, key)); err == nil {
		t.Fatal("block records accepted by a scalar-only oracle")
	}
	bad := append([]TapeRecord(nil), tape...)
	bad[0].X += "0"
	if err := ValidateTape(bad, fresh()); err == nil {
		t.Fatal("wrong input width accepted")
	}
	bad = append([]TapeRecord(nil), tape...)
	bad[len(bad)-1].Queries = 0
	if err := ValidateTape(bad, fresh()); err == nil {
		t.Fatal("non-monotone counters accepted")
	}
	bad = append([]TapeRecord(nil), tape...)
	bad[0].Kind = "zz"
	if err := ValidateTape(bad, fresh()); err == nil {
		t.Fatal("unknown record kind accepted")
	}
}

// TestNoiseDrawSkipEquivalence pins the countingSource contract: a
// fresh oracle skipped n draws continues the stream exactly where a
// used oracle that consumed n draws is.
func TestNoiseDrawSkipEquivalence(t *testing.T) {
	_, _, fresh := journalFixture(t)
	a := fresh()
	x := make([]bool, a.NumInputs())
	for i := 0; i < 7; i++ {
		a.Query(x)
		a.QueryBlock(x, 2)
	}
	n := a.NoiseDraws()
	if n == 0 {
		t.Fatal("no draws consumed")
	}
	b := fresh()
	b.SkipNoiseDraws(n)
	if b.NoiseDraws() != n {
		t.Fatalf("skip landed at %d, want %d", b.NoiseDraws(), n)
	}
	ya := append([]bool(nil), a.Query(x)...)
	yb := append([]bool(nil), b.Query(x)...)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("skipped oracle diverged from the continuously used one")
		}
	}
	wa := append([]uint64(nil), a.QueryBlock(x, 3)...)
	wb := append([]uint64(nil), b.QueryBlock(x, 3)...)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("skipped oracle block words diverged")
		}
	}
}
