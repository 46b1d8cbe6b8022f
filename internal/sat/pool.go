package sat

import (
	"math"
	"sync"
)

// Pool is the shared, append-only learnt-clause store behind portfolio
// solving (docs/SOLVER.md). Solvers publish learnts through a
// PoolClient bound as their exporter and pick up other solvers'
// clauses through the same client bound as their importer.
//
// Soundness across forked StatSAT instances is decided by derivation
// watermarks, not by clause literals: every clause carries the fork
// epoch of the newest formula addition its derivation touched, and a
// clause travels from instance S to instance T only when that
// watermark predates the point where S's and T's formulas diverged.
// (The naive "no forked-bit literals" rule is not enough — resolution
// can eliminate the forked bit from a clause whose derivation still
// depends on it.) Within one instance — its base solver and its racing
// helpers — every clause is eligible regardless of watermark, since
// they all solve the same formula.
//
// The pool is append-only and capacity-bounded: once full, new
// publishes are counted and dropped, so importer cursors stay valid
// forever and memory stays bounded on long runs.
type Pool struct {
	mu      sync.Mutex
	entries []poolEntry
	lits    []Lit // backing store; each entry's lits is a capped window
	epoch   int32
	chains  map[int][]forkPoint // instance id -> root-path fork points
	nextSrc int
	cap     int
	dropped int64
}

type poolEntry struct {
	src    int // publishing client id (entries are never re-imported by their publisher)
	origin int // instance the publisher solves
	epoch  int32
	lits   []Lit
}

// forkPoint is one step of an instance's ancestry: the instance that
// split off and the global epoch at which it did.
type forkPoint struct {
	inst int
	born int32
}

// DefaultPoolCap bounds the pool's entry count (publishes past it are
// dropped, never blocking a solver).
const DefaultPoolCap = 1 << 14

// NewPool returns an empty pool holding at most capacity clauses
// (DefaultPoolCap when capacity <= 0).
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		capacity = DefaultPoolCap
	}
	return &Pool{chains: map[int][]forkPoint{}, cap: capacity}
}

// RegisterRoot records id as a lineage root (epoch 0 ancestry). Attach
// does this implicitly; RegisterRoot exists for symmetry and tests.
func (p *Pool) RegisterRoot(id int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.registerLocked(id)
}

func (p *Pool) registerLocked(id int) {
	if _, ok := p.chains[id]; !ok {
		p.chains[id] = []forkPoint{{inst: id, born: 0}}
	}
}

// Fork registers child as a fork of parent and returns the new global
// epoch. Both siblings' solvers must adopt it (Solver.SetEpoch) BEFORE
// the diverging key-bit pins are added, so everything derived from a
// pin carries a watermark that blocks it from crossing the fork.
func (p *Pool) Fork(parent, child int) int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.registerLocked(parent)
	p.epoch++
	pc := p.chains[parent]
	nc := make([]forkPoint, len(pc), len(pc)+1)
	copy(nc, pc)
	p.chains[child] = append(nc, forkPoint{inst: child, born: p.epoch})
	return p.epoch
}

// Epoch returns the current global fork epoch.
func (p *Pool) Epoch() int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Size returns the number of clauses currently held.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Dropped returns the number of publishes rejected by the capacity
// bound.
func (p *Pool) Dropped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// diverge returns the first epoch at which the two ancestry chains
// split: clauses watermarked strictly before it are sound in both
// instances. Identical chains (same instance) never diverge.
func diverge(ca, cb []forkPoint) int32 {
	i := 0
	for i < len(ca) && i < len(cb) && ca[i] == cb[i] {
		i++
	}
	d := int32(math.MaxInt32)
	if i < len(ca) && ca[i].born < d {
		d = ca[i].born
	}
	if i < len(cb) && cb[i].born < d {
		d = cb[i].born
	}
	return d
}

// Attach creates a client publishing and importing on behalf of the
// given instance. Each solver in the portfolio gets its own client —
// the client's cursor and counters are part of that solver's state and
// must only be used from the goroutine driving it.
func (p *Pool) Attach(origin int) *PoolClient {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.registerLocked(origin)
	p.nextSrc++
	return &PoolClient{p: p, origin: origin, src: p.nextSrc}
}

// PoolClient is one solver's handle on the pool. Export matches
// Solver.SetExporter's hook signature, Imports matches
// Solver.SetImporter's.
type PoolClient struct {
	p        *Pool
	origin   int
	src      int
	cursor   int
	exported int64
	imported int64
}

// Export publishes a learnt clause (copying lits). Filtering by size
// and LBD happens solver-side (SetExporter), so this only applies the
// capacity bound.
func (c *PoolClient) Export(lits []Lit, lbd, epoch int32) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.entries) >= p.cap {
		p.dropped++
		return
	}
	start := len(p.lits)
	p.lits = append(p.lits, lits...)
	end := len(p.lits)
	p.entries = append(p.entries, poolEntry{
		src: c.src, origin: c.origin, epoch: epoch,
		lits: p.lits[start:end:end],
	})
	c.exported++
}

// Imports returns the clauses published since the last call that are
// sound for this client's instance: everything from the same instance,
// and from other instances only clauses watermarked before the two
// lineages diverged. The returned lits alias pool storage — read-only.
func (c *PoolClient) Imports() []Import {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.cursor >= len(p.entries) {
		return nil
	}
	myChain := p.chains[c.origin]
	var out []Import
	for _, e := range p.entries[c.cursor:] {
		if e.src == c.src {
			continue
		}
		if e.origin != c.origin && e.epoch >= diverge(p.chains[e.origin], myChain) {
			continue
		}
		out = append(out, Import{Lits: e.lits, Epoch: e.epoch})
	}
	c.cursor = len(p.entries)
	c.imported += int64(len(out))
	return out
}

// Stats returns the client's lifetime export/import counts.
func (c *PoolClient) Stats() (exported, imported int64) {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	return c.exported, c.imported
}
