// Package sat implements a from-scratch CDCL (conflict-driven clause
// learning) Boolean satisfiability solver in the MiniSat lineage:
// two-watched-literal propagation, first-UIP conflict analysis with
// clause minimisation, VSIDS variable activities, phase saving, Luby
// restarts, activity-based learnt-clause reduction, incremental clause
// addition between calls, solving under assumptions, and deep cloning
// (used by StatSAT instance duplication).
//
// The paper's reference implementation drives Lingeling through the
// Subramanyan et al. SAT-attack framework; this package is the
// self-contained substitute.
package sat

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Var is a 0-based variable index.
type Var int32

// Lit is a literal: variable 2*v for the positive phase, 2*v+1 for the
// negative phase.
type Lit int32

// MkLit builds a literal from a variable and a sign (true = negated).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit and NegLit are convenience constructors.
func PosLit(v Var) Lit { return MkLit(v, false) }
func NegLit(v Var) Lit { return MkLit(v, true) }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// String renders the literal DIMACS-style (1-based, minus = negated).
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// cref is a clause reference: the arena offset of the clause's header.
type cref uint32

// crefUndef is the reason of a decision, an assumption, a unit clause
// and an unassigned variable.
const crefUndef cref = math.MaxUint32

// Arena clause layout: clauseHdr header words, then the literals
// inline. The header words are indexed from the clause's cref.
const (
	hdrSize   = 0 // literal count << 1 | deleted bit
	hdrLBD    = 1 // LBD; compaction overwrites it with the forwarding cref
	hdrEpoch  = 2 // derivation watermark (see vepoch); 0 = pre-fork formula
	hdrAct    = 3 // activity, float32 bits
	clauseHdr = 4
)

// watcher is one entry of a literal's watch list. It holds no pointer,
// so watch lists are neither scanned by the GC nor write-barriered.
type watcher struct {
	c       cref
	blocker Lit
}

// Status is the outcome of a Solve call.
type Status int8

// Solve outcomes.
const (
	// Unknown means the solver stopped before reaching a verdict
	// (budget exhausted).
	Unknown Status = iota
	// Sat means a model was found.
	Sat
	// Unsat means the formula (under the given assumptions) has no model.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena   []Lit  // every clause: header, then literals (see clauseHdr)
	wasted  int    // arena words held by deleted clauses
	clauses []cref // problem clauses
	learnts []cref // learnt clauses
	watches [][]watcher

	vals     []lbool // literal-indexed: vals[l] is the value of l
	level    []int32
	reason   []cref
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	varDecay float64
	order    heap // max-activity variable heap
	phase    []lbool

	claInc   float64
	claDecay float64

	// Fork-epoch tracking for sound clause sharing (docs/SOLVER.md).
	// epoch stamps clauses added from now on; vepoch records, per
	// variable, the derivation watermark of its root-level assignment
	// (conflict analysis skips level-0 literals, so the watermark of a
	// learnt clause must absorb them here instead).
	epoch        int32
	vepoch       []int32
	analyzeWM    int32 // scratch: watermark of the learnt being derived
	pendingEpoch int32 // scratch: epoch for the next reason-less root enqueue
	defaultPhase lbool // initial saved phase for new variables

	// Portfolio hooks: exporter receives every learnt that passes the
	// size/LBD filter; importer is drained at Solve start and at each
	// restart boundary. Neither is copied by Clone.
	exporter     func(lits []Lit, lbd, epoch int32)
	exportMaxLen int
	exportMaxLBD int32
	importer     func() []Import

	// Clause journal for portfolio helper sync: when enabled, every
	// AddClause call is recorded verbatim (pre-simplification) with its
	// epoch so a lagging clone can replay it. Entries' literals are
	// capped windows of logLits. Not copied by Clone.
	logging bool
	log     []LogEntry
	logLits []Lit

	okay bool // false once a top-level conflict is established

	// Luby restart state.
	restartBase int

	// Scratch reused across calls: conflict analysis, LBD levels and
	// clause normalisation.
	seen       []byte
	analyzeBuf []Lit
	toClear    []Var
	levelSeen  []bool
	addBuf     []Lit

	// Statistics.
	Stats Statistics

	// Budget limits a single Solve call; 0 means unlimited.
	ConflictBudget int64

	// interrupt, when non-nil, aborts the search once the channel is
	// closed (checked amortized over conflicts, like ConflictBudget).
	// Set transiently by SolveCtx; never copied by Clone.
	interrupt <-chan struct{}

	// Model caching: last solution, indexed by var.
	model []lbool
}

// Statistics accumulates solver counters across Solve calls.
type Statistics struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	Removed      int64
	Solves       int64
	Exported     int64 // learnts handed to the portfolio exporter
	Imported     int64 // shared clauses accepted from the importer
}

// Snapshot is a point-in-time view of a solver: current formula size
// plus the cumulative Statistics counters. It is a plain value — safe
// to retain after the solver moves on.
type Snapshot struct {
	Vars    int
	Clauses int
	Learnts int // learnt clauses currently retained (Statistics.Learnt counts all ever learnt)
	Statistics
}

// Snapshot captures the solver's current counters. The solver is not
// goroutine-safe, so call this only from the goroutine driving it.
func (s *Solver) Snapshot() Snapshot {
	return Snapshot{
		Vars:       s.NumVars(),
		Clauses:    s.NumClauses(),
		Learnts:    s.NumLearnts(),
		Statistics: s.Stats,
	}
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		varInc:       1,
		varDecay:     0.95,
		claInc:       1,
		claDecay:     0.999,
		okay:         true,
		restartBase:  100,
		defaultPhase: lFalse,
	}
}

// Config collects the search-strategy knobs a portfolio varies between
// otherwise-identical racing solvers. Zero values keep the solver's
// current setting, so Config{} is a no-op.
type Config struct {
	// VarDecay is the VSIDS activity decay factor (default 0.95;
	// smaller = more agile, larger = more focused).
	VarDecay float64
	// ClauseDecay is the learnt-clause activity decay (default 0.999).
	ClauseDecay float64
	// RestartBase is the Luby restart unit in conflicts (default 100).
	RestartBase int
	// PhaseTrue resets the saved phases (and the default for future
	// variables) to true; the stock solver branches false first.
	PhaseTrue bool
}

// SetConfig applies the non-zero knobs. Safe between Solve calls only.
func (s *Solver) SetConfig(c Config) {
	if c.VarDecay > 0 {
		s.varDecay = c.VarDecay
	}
	if c.ClauseDecay > 0 {
		s.claDecay = c.ClauseDecay
	}
	if c.RestartBase > 0 {
		s.restartBase = c.RestartBase
	}
	if c.PhaseTrue {
		s.defaultPhase = lTrue
		for i := range s.phase {
			s.phase[i] = lTrue
		}
	}
}

// Epoch returns the solver's current fork epoch (the stamp applied to
// newly added problem clauses).
func (s *Solver) Epoch() int32 { return s.epoch }

// SetEpoch advances the fork epoch. Epochs only move forward; a lower
// value is ignored. Called by the portfolio when an instance forks,
// before the diverging key-bit pins are added, so those pins (and
// everything derived from them) carry the new watermark.
func (s *Solver) SetEpoch(e int32) {
	if e > s.epoch {
		s.epoch = e
	}
}

// SetExporter installs the learnt-clause export hook: fn is called for
// every learnt clause with at most maxLen literals and LBD at most
// maxLBD, with the clause's derivation watermark. The lits slice is
// only valid for the duration of the call — fn must copy. A nil fn
// removes the hook.
func (s *Solver) SetExporter(fn func(lits []Lit, lbd, epoch int32), maxLen int, maxLBD int32) {
	s.exporter = fn
	s.exportMaxLen = maxLen
	s.exportMaxLBD = maxLBD
}

// SetImporter installs the shared-clause import hook. The solver
// drains it (adding each clause as a learnt, stamped with its carried
// epoch) at the start of every Solve call and at each restart
// boundary. Returned Import slices are treated as read-only.
func (s *Solver) SetImporter(fn func() []Import) { s.importer = fn }

// Import is one shared clause handed to an importing solver: the
// literals plus the derivation watermark they carry into the importer.
type Import struct {
	Lits  []Lit
	Epoch int32
}

// LogEntry is one recorded AddClause call: the original literals
// (pre-simplification) and the epoch they were stamped with.
type LogEntry struct {
	Lits  []Lit
	Epoch int32
}

// EnableLog starts journaling AddClause calls so a clone taken earlier
// can be brought up to date with LogSince + AddClauseEpoch. The log is
// never copied by Clone; each solver that needs one enables its own.
func (s *Solver) EnableLog() { s.logging = true }

// LogLen returns the number of journaled AddClause calls.
func (s *Solver) LogLen() int { return len(s.log) }

// LogSince returns the journal entries from position n onward. The
// returned slice aliases the journal — callers must not mutate it and
// must finish with it before the next AddClause on this solver.
func (s *Solver) LogSince(n int) []LogEntry { return s.log[n:] }

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem clauses retained.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learnt clauses currently retained
// (reduceDB periodically discards about half).
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Clauses returns a copy of the retained problem clauses (after
// top-level simplification) plus the root-level unit assignments.
// Intended for tooling and verification, not hot paths.
func (s *Solver) Clauses() [][]Lit {
	n := len(s.trail)
	for _, c := range s.clauses {
		n += s.clauseLen(c)
	}
	flat := make([]Lit, 0, n)
	out := make([][]Lit, 0, len(s.clauses)+8)
	add := func(lits ...Lit) {
		start := len(flat)
		flat = append(flat, lits...)
		out = append(out, flat[start:len(flat):len(flat)])
	}
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			add(l)
		}
	}
	for _, c := range s.clauses {
		add(s.lits(c)...)
	}
	return out
}

// alloc appends a clause to the arena and returns its reference.
func (s *Solver) alloc(lits []Lit, lbd, epoch int32) cref {
	c := cref(len(s.arena))
	s.arena = append(s.arena, Lit(len(lits)<<1), Lit(lbd), Lit(epoch), 0)
	s.arena = append(s.arena, lits...)
	return c
}

// free marks a detached clause deleted; compact reclaims its words.
func (s *Solver) free(c cref) {
	s.arena[c+hdrSize] |= 1
	s.wasted += clauseHdr + s.clauseLen(c)
}

func (s *Solver) clauseLen(c cref) int { return int(s.arena[c+hdrSize] >> 1) }

// lits returns the clause's literals in place: swaps write the arena.
func (s *Solver) lits(c cref) []Lit {
	b := int(c) + clauseHdr
	e := b + s.clauseLen(c)
	return s.arena[b:e:e]
}

func (s *Solver) clauseLBD(c cref) int32   { return int32(s.arena[c+hdrLBD]) }
func (s *Solver) clauseEpoch(c cref) int32 { return int32(s.arena[c+hdrEpoch]) }

func (s *Solver) clauseAct(c cref) float32 {
	return math.Float32frombits(uint32(s.arena[c+hdrAct]))
}

func (s *Solver) setClauseAct(c cref, a float32) {
	s.arena[c+hdrAct] = Lit(math.Float32bits(a))
}

// compact moves the live clauses into a fresh arena, problem clauses
// then learnts in list order, and forwards every watcher and reason
// through the forwarding cref left in each old header. Clause lists
// and watch lists keep their order, so search is unchanged.
func (s *Solver) compact() {
	fresh := make([]Lit, 0, len(s.arena)-s.wasted)
	for _, cs := range [][]cref{s.clauses, s.learnts} {
		for i, c := range cs {
			nc := cref(len(fresh))
			fresh = append(fresh, s.arena[c:int(c)+clauseHdr+s.clauseLen(c)]...)
			s.arena[c+hdrLBD] = Lit(nc)
			cs[i] = nc
		}
	}
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = cref(s.arena[ws[i].c+hdrLBD])
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef {
			s.reason[l.Var()] = cref(s.arena[r+hdrLBD])
		}
	}
	s.arena, s.wasted = fresh, 0
}

// NewVar allocates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.level))
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, s.defaultPhase)
	s.vepoch = append(s.vepoch, 0)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v, &s.activity)
	return v
}

// NewVars allocates n fresh variables and returns the first.
func (s *Solver) NewVars(n int) Var {
	first := Var(len(s.level))
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return first
}

// Okay reports whether the solver is still consistent at the top level
// (false after an empty-clause addition or a level-0 conflict).
func (s *Solver) Okay() bool { return s.okay }

// AddClause adds a clause (given as a literal disjunction). It may be
// called before or between Solve calls; the solver backtracks to the
// root level first. Returns false if the solver became inconsistent.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.logging {
		start := len(s.logLits)
		s.logLits = append(s.logLits, lits...)
		end := len(s.logLits)
		s.log = append(s.log, LogEntry{Lits: s.logLits[start:end:end], Epoch: s.epoch})
	}
	return s.addClauseEpoch(lits, s.epoch, false)
}

// AddClauseEpoch adds a problem clause stamped with an explicit
// derivation epoch instead of the solver's current one. Portfolio
// helper sync uses it to replay a sibling's journal with the epochs
// the originals were recorded at.
func (s *Solver) AddClauseEpoch(epoch int32, lits ...Lit) bool {
	return s.addClauseEpoch(lits, epoch, false)
}

func (s *Solver) addClauseEpoch(in []Lit, baseEpoch int32, learnt bool) bool {
	if !s.okay {
		return false
	}
	s.cancelUntil(0)
	// The stored clause's watermark starts at the caller's epoch and
	// absorbs the derivation epochs of any root-false literals dropped
	// below: the simplified clause is implied by the original PLUS
	// those root facts, so soundness in a sibling requires all of them.
	wm := baseEpoch
	// Sort and dedup; drop tautologies and false literals.
	lits := append(s.addBuf[:0], in...)
	s.addBuf = lits
	slices.Sort(lits)
	out := lits[:0]
	var prev Lit = -1
	for _, l := range lits {
		if int(l.Var()) >= s.NumVars() {
			panic(fmt.Sprintf("sat: clause uses unallocated variable %d", l.Var()))
		}
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() && l.Var() == prev.Var() {
			return true // tautology: x ∨ ¬x
		}
		switch s.vals[l] {
		case lTrue:
			if s.level[l.Var()] == 0 {
				return true // satisfied at root
			}
		case lFalse:
			if s.level[l.Var()] == 0 {
				if ve := s.vepoch[l.Var()]; ve > wm {
					wm = ve
				}
				prev = l
				continue // drop root-false literal
			}
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.okay = false
		return false
	case 1:
		s.pendingEpoch = wm
		if !s.enqueue(out[0], crefUndef) {
			s.okay = false
			return false
		}
		if s.propagate() != crefUndef {
			s.okay = false
			return false
		}
		return true
	}
	var c cref
	if learnt {
		c = s.alloc(out, int32(len(out)), wm) // pessimistic LBD: imported clauses are reducible
		s.learnts = append(s.learnts, c)
	} else {
		c = s.alloc(out, 0, wm)
		s.clauses = append(s.clauses, c)
	}
	s.attach(c)
	return true
}

// importPending drains the importer, adding each shared clause as a
// learnt. Returns false when an import exposed top-level inconsistency
// (the formula is then Unsat — shared clauses are implied, so a
// contradiction with them is a contradiction of the formula itself).
func (s *Solver) importPending() bool {
	if s.importer == nil {
		return true
	}
	for _, im := range s.importer() {
		ok := true
		for _, l := range im.Lits {
			if int(l.Var()) >= s.NumVars() {
				ok = false // publisher's var space ran ahead of ours; skip
				break
			}
		}
		if !ok {
			continue
		}
		s.Stats.Imported++
		if !s.addClauseEpoch(im.Lits, im.Epoch, true) {
			return false
		}
	}
	return true
}

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{c, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, lits[0]})
}

func (s *Solver) detach(c cref) {
	lits := s.lits(c)
	s.removeWatch(lits[0].Not(), c)
	s.removeWatch(lits[1].Not(), c)
}

func (s *Solver) removeWatch(l Lit, c cref) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].c == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.vals[l] {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l.Not()] = lFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	if len(s.trailLim) == 0 {
		// Root-level assignment: record its derivation watermark, since
		// conflict analysis silently skips level-0 literals and must be
		// able to account for them in learnt-clause epochs. Reason-less
		// root enqueues (unit clauses, unit learnts) pass their epoch
		// via pendingEpoch.
		e := s.pendingEpoch
		if from != crefUndef {
			e = s.clauseEpoch(from)
			for _, q := range s.lits(from) {
				if q.Var() != v {
					if ve := s.vepoch[q.Var()]; ve > e {
						e = ve
					}
				}
			}
		}
		s.vepoch[v] = e
	}
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) propagate() cref {
	vals := s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		i, j := 0, 0
		confl := crefUndef
	outer:
		for i < len(ws) {
			w := ws[i]
			if vals[w.blocker] == lTrue {
				ws[j] = w
				i++
				j++
				continue
			}
			c := w.c
			lits := s.lits(c)
			// Ensure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[j] = watcher{c, first}
				i++
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, first})
					i++
					continue outer
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{c, first}
			i++
			j++
			if !s.enqueue(first, c) {
				confl = c
				s.qhead = len(s.trail)
				break
			}
		}
		for i < len(ws) {
			ws[j] = ws[i]
			i++
			j++
		}
		s.watches[p] = ws[:j]
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

func (s *Solver) cancelUntil(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	limit := s.trailLim[level]
	for i := len(s.trail) - 1; i >= limit; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = s.vals[PosLit(v)]
		s.vals[l] = lUndef
		s.vals[l.Not()] = lUndef
		s.reason[v] = crefUndef
		if !s.order.inHeap(v) {
			s.order.push(v, &s.activity)
		}
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.order.inHeap(v) {
		s.order.decrease(v, &s.activity)
	}
}

func (s *Solver) bumpClause(c cref) {
	a := s.clauseAct(c) + float32(s.claInc)
	s.setClauseAct(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setClauseAct(lc, s.clauseAct(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// analyze performs 1-UIP conflict analysis and returns the learnt
// clause (asserting literal first) and the backtrack level. The clause
// aliases a scratch buffer that the next analyze overwrites.
func (s *Solver) analyze(confl cref) ([]Lit, int32) {
	learnt := s.analyzeBuf[:0]
	learnt = append(learnt, 0) // placeholder for asserting literal
	var p Lit = -1
	idx := len(s.trail) - 1
	counter := 0
	s.analyzeWM = 0
	for {
		s.bumpClause(confl)
		if e := s.clauseEpoch(confl); e > s.analyzeWM {
			s.analyzeWM = e
		}
		start := 0
		if p != -1 {
			start = 1
		}
		lits := s.lits(confl)
		for k := start; k < len(lits); k++ {
			q := lits[k]
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			} else if s.level[v] == 0 {
				// Implicitly resolved against a root fact: fold its
				// derivation epoch into the learnt's watermark.
				if ve := s.vepoch[v]; ve > s.analyzeWM {
					s.analyzeWM = ve
				}
			}
		}
		// Find next literal on trail to resolve on.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Conflict clause minimisation (local: drop literals implied by
	// the rest of the clause through their reason clauses). Record all
	// marked variables first so seen[] can be fully cleared afterwards
	// even for the literals the minimisation drops.
	toClear := s.toClear[:0]
	for _, l := range learnt {
		s.seen[l.Var()] = 1
		toClear = append(toClear, l.Var())
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		if !s.redundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	minimised := learnt[:j]

	// Backtrack level: second-highest level in clause.
	btLevel := int32(0)
	if len(minimised) > 1 {
		maxI := 1
		for i := 2; i < len(minimised); i++ {
			if s.level[minimised[i].Var()] > s.level[minimised[maxI].Var()] {
				maxI = i
			}
		}
		minimised[1], minimised[maxI] = minimised[maxI], minimised[1]
		btLevel = s.level[minimised[1].Var()]
	}
	for _, v := range toClear {
		s.seen[v] = 0
	}
	s.toClear = toClear
	s.analyzeBuf = learnt
	return minimised, btLevel
}

// redundant reports whether literal l in a learnt clause is implied by
// the other marked literals via its reason clause (one-step check).
// A successful drop resolves the learnt against the reason clause (and
// any root facts it mentions), so the watermark absorbs their epochs.
func (s *Solver) redundant(l Lit) bool {
	r := s.reason[l.Var()]
	if r == crefUndef {
		return false
	}
	wm := s.clauseEpoch(r)
	for _, q := range s.lits(r) {
		if q.Var() == l.Var() {
			continue
		}
		if s.level[q.Var()] == 0 {
			if ve := s.vepoch[q.Var()]; ve > wm {
				wm = ve
			}
			continue
		}
		if s.seen[q.Var()] == 0 {
			return false
		}
	}
	if wm > s.analyzeWM {
		s.analyzeWM = wm
	}
	return true
}

// computeLBD counts the distinct decision levels of lits, marking them
// in levelSeen and clearing the marks again.
func (s *Solver) computeLBD(lits []Lit) int32 {
	n := int32(0)
	for _, l := range lits {
		lv := int(s.level[l.Var()])
		if lv >= len(s.levelSeen) {
			s.levelSeen = append(s.levelSeen, make([]bool, lv+1-len(s.levelSeen))...)
		}
		if !s.levelSeen[lv] {
			s.levelSeen[lv] = true
			n++
		}
	}
	for _, l := range lits {
		s.levelSeen[s.level[l.Var()]] = false
	}
	return n
}

func (s *Solver) recordLearnt(lits []Lit, btLevel int32) bool {
	s.cancelUntil(btLevel)
	wm := s.analyzeWM
	lbd := int32(1)
	switch len(lits) {
	case 0:
		s.okay = false
		return false
	case 1:
		s.pendingEpoch = wm
		if !s.enqueue(lits[0], crefUndef) {
			s.okay = false
			return false
		}
	default:
		lbd = s.computeLBD(lits)
		c := s.alloc(lits, lbd, wm)
		s.learnts = append(s.learnts, c)
		s.Stats.Learnt++
		s.attach(c)
		s.bumpClause(c)
		if !s.enqueue(lits[0], c) {
			s.okay = false
			return false
		}
	}
	if s.exporter != nil && len(lits) <= s.exportMaxLen && lbd <= s.exportMaxLBD {
		s.Stats.Exported++
		s.exporter(lits, lbd, wm)
	}
	s.varInc /= s.varDecay
	s.claInc /= s.claDecay
	return true
}

// reduceDB removes roughly half of the learnt clauses, keeping the
// most active / lowest-LBD ones and any currently locked clause, then
// compacts the arena once deleted clauses hold more than half of it.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		a, b := s.clauseLBD(s.learnts[i]), s.clauseLBD(s.learnts[j])
		if (a <= 2) != (b <= 2) {
			return a <= 2
		}
		return s.clauseAct(s.learnts[i]) > s.clauseAct(s.learnts[j])
	})
	keep := len(s.learnts) / 2
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		lits := s.lits(c)
		locked := s.reason[lits[0].Var()] == c && s.vals[lits[0]] == lTrue
		if i < keep || locked || len(lits) <= 2 {
			kept = append(kept, c)
		} else {
			s.detach(c)
			s.free(c)
			s.Stats.Removed++
		}
	}
	s.learnts = kept
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

func (s *Solver) pickBranchVar() (Var, bool) {
	if len(s.trail) == len(s.level) {
		// Every variable is assigned, so popping would only drain the
		// heap one sift-down at a time. Empty it in one pass instead:
		// cancelUntil re-pushes the same variables in the same order
		// either way, so the search does not change.
		s.order.clear()
		return 0, false
	}
	for s.order.size() > 0 {
		v := s.order.pop(&s.activity)
		if s.vals[PosLit(v)] == lUndef {
			return v, true
		}
	}
	return 0, false
}

// luby computes the Luby sequence value for index i (1-based):
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) int64 {
	x := i - 1
	size, seq := int64(1), uint(0)
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << seq
}

// interruptCheckInterval is how many conflicts pass between two looks
// at the interrupt channel: cheap enough to be invisible in the search
// loop, fine-grained enough that cancellation lands within
// milliseconds on any real formula.
const interruptCheckInterval = 256

// SolveCtx is Solve with cancellation: when ctx is cancelled or its
// deadline passes, the search unwinds and returns Unknown. The check
// is amortized over conflicts (every interruptCheckInterval), so a
// solve that never conflicts — unit propagation straight to a model —
// completes even under a cancelled context. Callers distinguish a
// cancelled Unknown from a ConflictBudget Unknown via ctx.Err().
func (s *Solver) SolveCtx(ctx context.Context, assumptions ...Lit) Status {
	if ctx.Err() != nil {
		s.Stats.Solves++
		return Unknown
	}
	s.interrupt = ctx.Done()
	defer func() { s.interrupt = nil }()
	return s.Solve(assumptions...)
}

// Solve runs the CDCL search under the given assumptions. It returns
// Sat, Unsat, or Unknown (only when ConflictBudget is exhausted or a
// SolveCtx context fires).
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.Stats.Solves++
	if !s.okay {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != crefUndef {
		s.okay = false
		return Unsat
	}
	if !s.importPending() {
		return Unsat
	}

	var conflictsAtStart = s.Stats.Conflicts
	var restartIdx int64 = 1
	restartLimit := int64(s.restartBase) * luby(restartIdx)
	conflictsSinceRestart := int64(0)
	maxLearnts := int64(len(s.clauses))/3 + 1000

	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.Stats.Conflicts++
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.okay = false
				return Unsat
			}
			// Learn and backjump. Backjumping below the assumption
			// levels is fine: the decision loop re-asserts the
			// assumptions; a genuinely inconsistent assumption then
			// shows up as a false literal at its decision point.
			learnt, btLevel := s.analyze(confl)
			if !s.recordLearnt(learnt, btLevel) {
				return Unsat
			}
			if s.ConflictBudget > 0 && s.Stats.Conflicts-conflictsAtStart >= s.ConflictBudget {
				s.cancelUntil(0)
				return Unknown
			}
			if s.interrupt != nil &&
				(s.Stats.Conflicts-conflictsAtStart)%interruptCheckInterval == 0 {
				select {
				case <-s.interrupt:
					s.cancelUntil(0)
					return Unknown
				default:
				}
			}
			continue
		}

		if conflictsSinceRestart >= restartLimit {
			s.Stats.Restarts++
			restartIdx++
			restartLimit = int64(s.restartBase) * luby(restartIdx)
			conflictsSinceRestart = 0
			s.cancelUntil(int32(s.countAssumptionLevels(assumptions)))
			// Restart boundary: fold in clauses shared by the portfolio
			// (importPending backtracks to root; the decision loop
			// re-asserts the assumptions).
			if !s.importPending() {
				return Unsat
			}
			continue
		}

		if int64(len(s.learnts)) >= maxLearnts {
			maxLearnts += maxLearnts / 10
			s.reduceDB()
		}

		// Assumption decisions first.
		if int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.vals[a] {
			case lTrue:
				// Already satisfied: open an empty decision level so
				// the level↔assumption-index mapping stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				s.cancelUntil(0)
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			if !s.enqueue(a, crefUndef) {
				s.cancelUntil(0)
				return Unsat
			}
			continue
		}

		v, ok := s.pickBranchVar()
		if !ok {
			// All variables assigned: model found.
			s.saveModel()
			s.cancelUntil(0)
			return Sat
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		ph := s.phase[v]
		lit := MkLit(v, ph != lTrue)
		s.enqueue(lit, crefUndef)
	}
}

func (s *Solver) countAssumptionLevels(assumptions []Lit) int {
	n := len(assumptions)
	if int(s.decisionLevel()) < n {
		n = int(s.decisionLevel())
	}
	return n
}

func (s *Solver) saveModel() {
	n := s.NumVars()
	if cap(s.model) < n {
		s.model = make([]lbool, n)
	}
	s.model = s.model[:n]
	for v := range s.model {
		s.model[v] = s.vals[PosLit(Var(v))]
	}
}

// ModelValue returns the last model's value of v. Only meaningful
// directly after Solve returned Sat.
func (s *Solver) ModelValue(v Var) bool {
	if int(v) >= len(s.model) {
		return false
	}
	return s.model[v] == lTrue
}

// ModelLit returns the last model's truth value of a literal.
func (s *Solver) ModelLit(l Lit) bool {
	b := s.ModelValue(l.Var())
	if l.Neg() {
		return !b
	}
	return b
}

// Clone returns a deep copy of the solver: clauses, learnt clauses,
// activities, phases, epochs and statistics. The clone can evolve
// completely independently (StatSAT instance duplication relies on
// this). Clause references are arena offsets, so the copy is a few
// flat slice copies. Portfolio bindings — exporter, importer, clause
// journal — are deliberately NOT copied: pool membership is per-solver
// and each clone that wants one registers its own (docs/SOLVER.md).
func (s *Solver) Clone() *Solver {
	s.cancelUntil(0)
	n := New()
	n.okay = s.okay
	n.varInc, n.varDecay = s.varInc, s.varDecay
	n.claInc, n.claDecay = s.claInc, s.claDecay
	n.restartBase = s.restartBase
	n.defaultPhase = s.defaultPhase
	n.epoch = s.epoch
	n.ConflictBudget = s.ConflictBudget
	n.Stats = s.Stats

	n.arena = slices.Clone(s.arena)
	n.wasted = s.wasted
	n.clauses = slices.Clone(s.clauses)
	n.learnts = slices.Clone(s.learnts)
	n.vals = slices.Clone(s.vals)
	n.level = slices.Clone(s.level)
	n.reason = slices.Clone(s.reason)
	n.trail = slices.Clone(s.trail)
	n.qhead = s.qhead
	n.activity = slices.Clone(s.activity)
	n.phase = slices.Clone(s.phase)
	n.vepoch = slices.Clone(s.vepoch)
	n.seen = make([]byte, len(s.seen))
	n.model = slices.Clone(s.model)

	// All watch lists share one slab; each is capped at its length so
	// a later append reallocates instead of running into its neighbour.
	total := 0
	for _, ws := range s.watches {
		total += len(ws)
	}
	slab := make([]watcher, total)
	n.watches = make([][]watcher, len(s.watches))
	off := 0
	for i, ws := range s.watches {
		end := off + copy(slab[off:], ws)
		n.watches[i] = slab[off:end:end]
		off = end
	}
	n.order = s.order.clone()
	return n
}

// heap is a max-heap over variables keyed by activity.
type heap struct {
	data []Var
	pos  []int32 // var -> index in data, -1 if absent
}

func (h *heap) size() int { return len(h.data) }

func (h *heap) inHeap(v Var) bool {
	return int(v) < len(h.pos) && h.pos[v] >= 0
}

func (h *heap) push(v Var, act *[]float64) {
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.pos[v] = int32(len(h.data))
	h.data = append(h.data, v)
	h.up(int(h.pos[v]), act)
}

func (h *heap) pop(act *[]float64) Var {
	top := h.data[0]
	last := h.data[len(h.data)-1]
	h.data = h.data[:len(h.data)-1]
	h.pos[top] = -1
	if len(h.data) > 0 {
		h.data[0] = last
		h.pos[last] = 0
		h.down(0, act)
	}
	return top
}

// clear empties the heap without sifting.
func (h *heap) clear() {
	for _, v := range h.data {
		h.pos[v] = -1
	}
	h.data = h.data[:0]
}

func (h *heap) decrease(v Var, act *[]float64) {
	h.up(int(h.pos[v]), act)
}

func (h *heap) up(i int, act *[]float64) {
	a := *act
	x := h.data[i]
	for i > 0 {
		p := (i - 1) / 2
		if a[h.data[p]] >= a[x] {
			break
		}
		h.data[i] = h.data[p]
		h.pos[h.data[i]] = int32(i)
		i = p
	}
	h.data[i] = x
	h.pos[x] = int32(i)
}

func (h *heap) down(i int, act *[]float64) {
	a := *act
	x := h.data[i]
	for {
		l := 2*i + 1
		if l >= len(h.data) {
			break
		}
		c := l
		if r := l + 1; r < len(h.data) && a[h.data[r]] > a[h.data[l]] {
			c = r
		}
		if a[h.data[c]] <= a[x] {
			break
		}
		h.data[i] = h.data[c]
		h.pos[h.data[i]] = int32(i)
		i = c
	}
	h.data[i] = x
	h.pos[x] = int32(i)
}

func (h *heap) clone() heap {
	return heap{
		data: append([]Var(nil), h.data...),
		pos:  append([]int32(nil), h.pos...),
	}
}
