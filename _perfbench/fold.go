package main

import (
	"sort"
	"sync"
	"time"

	"statsat/internal/trace"
)

// stamped is one trace event read against the benchmark's own clock,
// the same clock the oracle wrapper stamps its calls with.
type stamped struct {
	T  time.Duration
	Ev trace.Event
}

// oracleCall is one call into the chip, timed by the oracle wrapper.
type oracleCall struct {
	Start, End time.Duration
	Queries    int64
}

// clock reads a monotonic time relative to a fixed base.
type clock struct{ base time.Time }

func (c clock) now() time.Duration { return time.Since(c.base) }

// recorder is the benchmark's trace.Tracer: it keeps every event in
// memory, stamped on arrival. Emit may be called from several
// goroutines (key scoring runs concurrently).
type recorder struct {
	clk clock
	mu  sync.Mutex
	evs []stamped
}

func (r *recorder) Emit(ev trace.Event) {
	t := r.clk.now()
	r.mu.Lock()
	r.evs = append(r.evs, stamped{T: t, Ev: ev})
	r.mu.Unlock()
}

func (r *recorder) events() []stamped {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]stamped(nil), r.evs...)
}

// layers is the per-layer account of one or more traced attacks. The
// attack phase is partitioned into spans:
//
//	build        attack_start -> first iteration_start (miter and key
//	             solver construction)
//	solve        iteration_start -> first oracle call, or the whole
//	             iteration when it makes no call (the final UNSAT solve)
//	repeat       a whole iteration whose DIP repeated (solve plus the
//	             fork or force-proceed; no oracle call)
//	sample       first oracle call start -> last oracle call end
//	post-sample  last oracle call end -> dip_found or instance_dead
//	             (key enumeration, BER estimation, DIP encoding)
//
// and whatever these spans leave uncovered is Unattributed. The eval
// phase splits into oracle sampling and key simulation (the rest).
type layers struct {
	Attacks, Failed int

	AttackS, BuildS, SolveS, RepeatS, SampleS, PostSampleS float64
	UnattributedS, FinalUnsatS                             float64
	EvalS, EvalSampleS, KeySimS                            float64

	Iterations, DIPs, Repeats int
	IterMs                    []float64

	Conflicts, Propagations, Decisions, Restarts int64
	// SolveConflicts and SolveProps cover only the iterations whose time
	// is in SolveS, so their rates use a matching denominator.
	SolveConflicts, SolveProps int64

	Queries, EvalQueries    int64
	Forks, ForceProceeds    int
	Dead, KeysEnumerated    int
	FinalVars, FinalClauses int
}

// fold folds a recorded event stream and the oracle-call log of the
// same attacks into a layer account. Calls must not overlap (attacks
// run with Parallel off) and both inputs must be in time order.
func fold(evs []stamped, calls []oracleCall) layers {
	var l layers
	// within returns the calls that lie entirely inside [from, to].
	within := func(from, to time.Duration) []oracleCall {
		i := sort.Search(len(calls), func(i int) bool { return calls[i].Start >= from })
		j := i
		for j < len(calls) && calls[j].End <= to {
			j++
		}
		return calls[i:j]
	}
	var (
		attackStart, evalStart time.Duration
		built, interrupted     bool
		iterStart              stamped
		spanned                float64
		lastSnap               *trace.SolverStats
		succeeded              int
	)
	for k, s := range evs {
		ev := s.Ev
		switch ev.Type {
		case trace.AttackStart:
			l.Attacks++
			built, interrupted = false, false
			attackStart, spanned, lastSnap = s.T, 0, nil
		case trace.IterStart:
			if !built {
				b := (s.T - attackStart).Seconds()
				l.BuildS += b
				spanned += b
				built = true
			}
			iterStart = s
		case trace.IterEnd:
			span := (s.T - iterStart.T).Seconds()
			l.Iterations++
			l.IterMs = append(l.IterMs, span*1e3)
			cs := within(iterStart.T, s.T)
			d := snapDelta(iterStart.Ev.Solver, ev.Solver)
			l.Conflicts += d.Conflicts
			l.Propagations += d.Propagations
			l.Decisions += d.Decisions
			l.Restarts += d.Restarts
			lastSnap = ev.Solver
			switch {
			case ev.Status == "repeat":
				l.Repeats++
				l.RepeatS += span
				spanned += span
			case len(cs) == 0:
				l.SolveS += span
				spanned += span
				l.SolveConflicts += d.Conflicts
				l.SolveProps += d.Propagations
				if ev.Status == "unsat" {
					l.FinalUnsatS += span
				}
			default:
				first, last := cs[0], cs[len(cs)-1]
				solve := (first.Start - iterStart.T).Seconds()
				sample := (last.End - first.Start).Seconds()
				post := (postSampleEnd(evs[:k], last.End, s.T) - last.End).Seconds()
				l.SolveS += solve
				l.SampleS += sample
				l.PostSampleS += post
				spanned += solve + sample + post
				l.SolveConflicts += d.Conflicts
				l.SolveProps += d.Propagations
				for _, c := range cs {
					l.Queries += c.Queries
				}
			}
		case trace.DIPFound:
			l.DIPs++
			if ev.DIP != nil {
				l.KeysEnumerated += ev.DIP.Candidates
			}
		case trace.Fork:
			l.Forks++
		case trace.ForceProceed:
			l.ForceProceeds++
		case trace.InstanceDead:
			l.Dead++
		case trace.Interrupted:
			interrupted = true
		case trace.AttackEnd:
			a := (s.T - attackStart).Seconds()
			l.AttackS += a
			l.UnattributedS += a - spanned
			if t := ev.Totals; t != nil && !t.Truncated && t.Keys > 0 && !interrupted {
				succeeded++
			}
			if lastSnap != nil {
				l.FinalVars += lastSnap.Vars
				l.FinalClauses += lastSnap.Clauses
			}
		case trace.EvalStart:
			evalStart = s.T
		case trace.EvalEnd:
			e := (s.T - evalStart).Seconds()
			l.EvalS += e
			if cs := within(evalStart, s.T); len(cs) > 0 {
				sample := (cs[len(cs)-1].End - cs[0].Start).Seconds()
				l.EvalSampleS += sample
				l.KeySimS += e - sample
				for _, c := range cs {
					l.EvalQueries += c.Queries
				}
			} else {
				l.KeySimS += e
			}
		}
	}
	// An attack failed unless it closed with keys, untruncated and
	// uninterrupted; one that errored never emits attack_end.
	l.Failed = l.Attacks - succeeded
	return l
}

// postSampleEnd is the end of the post-sample block of the iteration
// whose events precede index len(prior): the first dip_found or
// instance_dead after the last oracle call, else the iteration's end.
func postSampleEnd(prior []stamped, lastCallEnd, iterEnd time.Duration) time.Duration {
	// Walk back to the iteration's own events; they are the tail of
	// prior after its iteration_start.
	i := len(prior)
	for i > 0 && prior[i-1].Ev.Type != trace.IterStart {
		i--
	}
	for _, s := range prior[i:] {
		if s.T >= lastCallEnd && (s.Ev.Type == trace.DIPFound || s.Ev.Type == trace.InstanceDead) {
			return s.T
		}
	}
	return iterEnd
}

// snapDelta is the solver effort between two snapshots of one solver.
func snapDelta(a, b *trace.SolverStats) trace.SolverStats {
	if a == nil || b == nil {
		return trace.SolverStats{}
	}
	return trace.SolverStats{
		Conflicts:    b.Conflicts - a.Conflicts,
		Propagations: b.Propagations - a.Propagations,
		Decisions:    b.Decisions - a.Decisions,
		Restarts:     b.Restarts - a.Restarts,
	}
}

// add accumulates another account into l.
func (l *layers) add(o layers) {
	l.Attacks += o.Attacks
	l.Failed += o.Failed
	l.AttackS += o.AttackS
	l.BuildS += o.BuildS
	l.SolveS += o.SolveS
	l.RepeatS += o.RepeatS
	l.SampleS += o.SampleS
	l.PostSampleS += o.PostSampleS
	l.UnattributedS += o.UnattributedS
	l.FinalUnsatS += o.FinalUnsatS
	l.EvalS += o.EvalS
	l.EvalSampleS += o.EvalSampleS
	l.KeySimS += o.KeySimS
	l.Iterations += o.Iterations
	l.DIPs += o.DIPs
	l.Repeats += o.Repeats
	l.IterMs = append(l.IterMs, o.IterMs...)
	l.Conflicts += o.Conflicts
	l.Propagations += o.Propagations
	l.Decisions += o.Decisions
	l.Restarts += o.Restarts
	l.SolveConflicts += o.SolveConflicts
	l.SolveProps += o.SolveProps
	l.Queries += o.Queries
	l.EvalQueries += o.EvalQueries
	l.Forks += o.Forks
	l.ForceProceeds += o.ForceProceeds
	l.Dead += o.Dead
	l.KeysEnumerated += o.KeysEnumerated
	l.FinalVars += o.FinalVars
	l.FinalClauses += o.FinalClauses
}
