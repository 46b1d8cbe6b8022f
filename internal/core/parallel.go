package core

import (
	"context"
	"sync"

	"statsat/internal/oracle"
)

// lockedOracle serialises access to a (stateful) oracle so multiple
// instance goroutines can share the activated chip. This matches the
// physical reality: the attacker owns one chip and queries it
// sequentially; parallelism buys concurrent SAT solving and BER
// estimation, not concurrent silicon. On its own it is the wrapper for
// scalar chips: it has no QueryBlock, so oracle.SignalProbs falls back
// to Query.
type lockedOracle struct {
	mu    sync.Mutex
	inner oracle.Oracle
}

func (o *lockedOracle) Query(x []bool) []bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inner.Query(x)
}

func (o *lockedOracle) NumInputs() int  { return o.inner.NumInputs() }
func (o *lockedOracle) NumOutputs() int { return o.inner.NumOutputs() }

func (o *lockedOracle) Queries() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inner.Queries()
}

// NoiseDraws forwards oracle.NoiseCounter when the chip counts noise
// draws (zero otherwise), so engine checkpoints can stamp the stream
// position through the serialising wrapper.
func (o *lockedOracle) NoiseDraws() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if nc, ok := o.inner.(interface{ NoiseDraws() uint64 }); ok {
		return nc.NoiseDraws()
	}
	return 0
}

// blockLockedOracle extends lockedOracle with the blocked sampling
// view, so instances sharing the chip keep the wide-pass fast path
// (oracle.SignalProbs prefers BlockQuerier when present).
type blockLockedOracle struct {
	*lockedOracle
	block oracle.BlockQuerier
}

func (o *blockLockedOracle) QueryBlock(x []bool, words int) []uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	// The inner oracle reuses its block buffer across calls
	// (oracle.BlockQuerier contract); the caller reads the words after
	// the lock is released, so hand out a private copy — otherwise a
	// concurrent instance's next pass would overwrite them mid-read.
	return append([]uint64(nil), o.block.QueryBlock(x, words)...)
}

func (o *blockLockedOracle) BlockWords() int { return o.block.BlockWords() }

// wrapOracle returns a goroutine-safe view of orc, preserving blocked
// sampling capability when present.
func wrapOracle(orc oracle.Oracle) oracle.Oracle {
	lo := &lockedOracle{inner: orc}
	if blk, ok := orc.(oracle.BlockQuerier); ok {
		return &blockLockedOracle{lockedOracle: lo, block: blk}
	}
	return lo
}

// runParallel executes the instance scheduler with one goroutine per
// live instance; forked children get their own goroutines via
// run.spawn. The N_inst bound, the iteration budget and all result
// counters are enforced exactly as in the sequential path (shared
// bookkeeping sits behind run.mu).
func (run *attackRun) runParallel(ctx context.Context, root *instance) {
	var wg sync.WaitGroup
	run.spawn = func(in *instance) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run.instanceLoop(ctx, in)
		}()
	}
	run.spawn(root)
	wg.Wait()
	run.spawn = nil
}

// instanceLoop drives one instance until it finishes, dies, errors,
// exhausts the shared iteration budget, or the context is cancelled.
func (run *attackRun) instanceLoop(ctx context.Context, in *instance) {
	for {
		run.mu.Lock()
		stop := run.err != nil || in.state != running
		run.mu.Unlock()
		if stop {
			return
		}
		if err := ctx.Err(); err != nil {
			run.setErr(run.interrupted(in, err))
			return
		}
		if !run.takeIteration() {
			run.markTruncated()
			return
		}
		if err := run.step(ctx, in); err != nil {
			run.setErr(err)
			return
		}
	}
}
