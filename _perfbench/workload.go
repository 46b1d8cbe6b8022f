package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"statsat/internal/attack"
	"statsat/internal/core"
	"statsat/internal/engine"
	"statsat/internal/gen"
	"statsat/internal/lock"
	"statsat/internal/metrics"
	"statsat/internal/oracle"
	"statsat/internal/trace"
)

// workload is one named attack workload: a panel of RLL locks of a
// full-size benchmark circuit, attacked by the standard SAT attack
// (eps = 0) or by StatSAT with the attacker told eps.
type workload struct {
	name  string
	bench string
	keys  int
	eps   float64
	nInst int
	// panel lists the lock seeds (lockgen -seed) attacked in a round.
	panel []int64
}

// StatSAT runs with the paper's defaults, spelled out.
const (
	paperNs     = 500
	paperNSatis = 100
	paperNEval  = 2000
)

// satMaxIter caps the standard SAT attack's DIP loop; the c7552/RLL-64
// locks need about 25 DIPs.
const satMaxIter = 5000

// workloads are fixed panels (see README.md for why), each sized so one
// round takes about 30 s on a 2-CPU box. Lock seed 3 of the first is
// the ROADMAP instance `lockgen -benchmark c7552 -tech rll -keys 64 -seed 3`.
var workloads = []workload{
	{name: "sat-c7552-rll64", bench: "c7552", keys: 64, panel: []int64{1, 2, 3, 4, 5, 7}},
	{name: "statsat-c880-forks", bench: "c880", keys: 64, eps: 0.01, nInst: 8, panel: []int64{1, 2, 3, 4}},
	{name: "statsat-c7552-eps", bench: "c7552", keys: 32, eps: 0.0025, nInst: 4, panel: []int64{3, 4, 5}},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) statsat() bool { return w.eps > 0 }

// The chip's noise seed depends on the lock seed alone, so a panel
// entry's attack trajectory is the same under every workload seed. The
// workload seed draws StatSAT's own randomness: the random inputs and
// simulated key noise of the evaluation phase (eq. 7-8).
func chipSeed(lockSeed int64) int64 { return lockSeed*7919 + 17 }

func attackSeed(s, lockSeed int64) int64 { return s*1000003 + lockSeed }

// inputs is one attack's generated input: the locked netlist and the
// activated chip the attacker buys.
type inputs struct {
	lockSeed int64
	locked   *lock.Locked
	chip     oracle.Oracle
	// seed is the attack's own seed (StatSAT's key evaluation).
	seed int64
}

// setup generates the netlist, locks it with panel entry j and
// activates the chip for workload seed s.
func (w workload) setup(s int64, j int) (inputs, error) {
	bm, ok := gen.ByName(w.bench)
	if !ok {
		return inputs{}, fmt.Errorf("unknown benchmark %q", w.bench)
	}
	ls := w.panel[j]
	l, err := lock.RLL(bm.Build(), w.keys, rand.New(rand.NewSource(ls)))
	if err != nil {
		return inputs{}, err
	}
	in := inputs{lockSeed: ls, locked: l, seed: attackSeed(s, ls)}
	if w.statsat() {
		in.chip = oracle.NewProbabilistic(l.Circuit, l.Key, w.eps, chipSeed(ls))
	} else {
		in.chip = oracle.NewDeterministic(l.Circuit, l.Key)
	}
	return in, nil
}

// fingerprint is an attack's trajectory: with Parallel and portfolio
// off it repeats exactly for the same inputs.
type fingerprint struct {
	Keys                                 []string
	Iterations, DIPs, Forks, Force, Dead int
	Queries, EvalQueries                 int64
}

func (f fingerprint) String() string {
	return fmt.Sprintf("keys=%v iterations=%d dips=%d forks=%d force=%d dead=%d queries=%d eval_queries=%d",
		f.Keys, f.Iterations, f.DIPs, f.Forks, f.Force, f.Dead, f.Queries, f.EvalQueries)
}

// outcome is one attack's result as the benchmark sees it.
type outcome struct {
	fp          fingerprint
	keys        [][]bool
	total, eval time.Duration
	hd          float64
	recovered   bool
	// failure says why the attack failed ("" when it did not).
	failure string
	// wrongKey marks a standard SAT attack whose single key is not
	// equivalent to the lock key: an incorrect output, not a miss.
	wrongKey bool
}

// run attacks in through chip (in.chip or a wrapper around it), with
// tr as the tracer (nil for untraced runs). An attack that errors or
// hits the iteration cap is a failure in the outcome; check adds the
// key verdict afterwards, outside the timed region.
func (w workload) run(ctx context.Context, in inputs, chip oracle.Oracle, tr trace.Tracer) outcome {
	var o outcome
	if w.statsat() {
		opts := core.Options{
			Ns: paperNs, NSatis: paperNSatis, NEval: paperNEval,
			NInst: w.nInst, EpsG: w.eps, Seed: in.seed, Tracer: tr,
		}
		t := time.Now()
		res, err := core.Attack(ctx, in.locked.Circuit, chip, opts)
		o.total = time.Since(t)
		switch {
		case errors.Is(err, core.ErrNoInstances):
			o.failure = "every instance died"
		case err != nil:
			o.failure = err.Error()
		case res.Truncated:
			o.failure = "iteration cap"
		}
		if res == nil {
			return o
		}
		o.eval = res.EvalDuration
		o.fp = fingerprint{
			Iterations: res.TotalIterations, Forks: res.Forks, Force: res.ForceProceeds,
			Dead: res.DeadInstances, Queries: res.OracleQueries, EvalQueries: res.EvalQueries,
		}
		for _, st := range res.InstanceStats {
			o.fp.DIPs += st.DIPs
		}
		for _, k := range res.Keys {
			o.keys = append(o.keys, k.Key)
		}
		if res.Best != nil {
			o.hd = res.Best.HD
		}
	} else {
		t := time.Now()
		res, err := attack.StandardSATOpt(ctx, in.locked.Circuit, chip, attack.SATOptions{MaxIter: satMaxIter, Tracer: tr})
		o.total = time.Since(t)
		switch {
		case errors.Is(err, engine.ErrIterationLimit):
			o.failure = "iteration cap"
		case err != nil:
			o.failure = err.Error()
		case res.Failed || res.Key == nil:
			o.failure = "key solver UNSAT"
		}
		if res == nil {
			return o
		}
		o.fp = fingerprint{Iterations: res.Iterations, DIPs: res.Iterations, Queries: res.OracleQueries}
		if res.Key != nil {
			o.keys = [][]bool{res.Key}
		}
	}
	for _, k := range o.keys {
		o.fp.Keys = append(o.fp.Keys, engine.BitString(k))
	}
	return o
}

// noKey is the failure of an attack that ran to completion but
// returned no key equivalent to the lock key.
const noKey = "no returned key is equivalent to the lock key"

// check sets the key verdict: the attack recovered the lock when some
// returned key is equivalent to the lock key, and failed otherwise.
func (o *outcome) check(w workload, in inputs) error {
	for _, k := range o.keys {
		eq, err := equivalent(in.locked, k)
		if err != nil {
			return err
		}
		if eq {
			o.recovered = true
			return nil
		}
	}
	if o.failure == "" {
		o.failure = noKey
		o.wrongKey = !w.statsat()
	}
	return nil
}

// equivalent reports whether key unlocks the same function as the
// lock key; a bitwise-equal key skips the SAT check.
func equivalent(l *lock.Locked, key []bool) (bool, error) {
	same := len(key) == len(l.Key)
	for i := 0; same && i < len(key); i++ {
		same = key[i] == l.Key[i]
	}
	if same {
		return true, nil
	}
	return metrics.KeysEquivalent(l.Circuit, key, l.Key)
}
