package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// runtimeSample reads the counters behind runtime.alloc_mb and
// runtime.gc_cpu_frac.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

// tracedRun runs every attack untraced and then traced on fresh
// copies of the same inputs, checks that tracing changed nothing, and
// reports the per-layer metrics summed over a round's attacks (means
// over the run's rounds).
func tracedRun(ctx context.Context, cfg config, out io.Writer) (result, error) {
	var (
		res                     result
		acc                     layers
		rp                      replayTimes
		plainTotal, tracedTotal float64
		hdSum, allocB           float64
		gcCPU, totalCPU         float64
		nSatis                  int
	)
	if cfg.w.statsat() {
		nSatis = paperNSatis
	}
	clk := clock{base: time.Now()}
	err := rounds(cfg.budget, len(cfg.w.panel), func(_, i int) error {
		in, err := cfg.w.setup(cfg.seed, i)
		if err != nil {
			return err
		}
		runtime.GC()
		before := readRuntime()
		plain := cfg.w.run(ctx, in, in.chip, nil)
		after := readRuntime()
		allocB += after.allocBytes - before.allocBytes
		gcCPU += after.gcCPU - before.gcCPU
		totalCPU += after.totalCPU - before.totalCPU
		if err := cfg.tally(&res, out, i, in, &plain); err != nil {
			return err
		}

		in, err = cfg.w.setup(cfg.seed, i)
		if err != nil {
			return err
		}
		rec := &recorder{clk: clk}
		log := &callLog{clk: clk}
		chip, err := timeOracle(in.chip, log)
		if err != nil {
			return err
		}
		runtime.GC()
		traced := cfg.w.run(ctx, in, chip, rec)
		if a, b := plain.fp.String(), traced.fp.String(); a != b {
			res.problem("lock seed %d: tracing changed the trajectory\n  untraced: %s\n  traced:   %s", in.lockSeed, a, b)
		}
		plainTotal += plain.total.Seconds()
		tracedTotal += traced.total.Seconds()
		hdSum += plain.hd

		evs := rec.events()
		l := fold(evs, log.snapshot())
		checkFold(&res, in.lockSeed, l, plain)
		fmt.Fprintf(out, "lock seed %d traced: attack %.3f s = solve %.3f (final UNSAT %.3f) + repeat %.3f + sample %.3f + post-sample %.3f + other %.3f\n",
			in.lockSeed, l.AttackS, l.SolveS, l.FinalUnsatS, l.RepeatS, l.SampleS, l.PostSampleS, l.BuildS+l.UnattributedS)
		acc.add(l)
		r, err := replay(ctx, in.locked.Circuit, evs, nSatis, cfg.w.eps)
		if err != nil {
			return err
		}
		rp.add(r)
		return nil
	})
	if err != nil {
		return res, err
	}
	nRounds := float64(res.Attempted) / float64(len(cfg.w.panel))
	res.Metrics = layerMetrics(acc, rp, nRounds, hdSum/float64(res.Attempted), allocB, gcCPU, totalCPU, plainTotal, tracedTotal)
	res.Correct = len(res.problems) == 0
	printLayers(out, cfg, nRounds, acc, rp, res.Metrics)
	printProblems(out, res.problems)
	return res, nil
}

// checkFold cross-checks the fold's counts against the attack's own
// result: a mismatch means the accounting lost or invented work.
func checkFold(res *result, lockSeed int64, l layers, o outcome) {
	type pair struct {
		what      string
		fold, run int64
	}
	for _, p := range []pair{
		{"attack-phase queries", l.Queries, o.fp.Queries},
		{"eval-phase queries", l.EvalQueries, o.fp.EvalQueries},
		{"forks", int64(l.Forks), int64(o.fp.Forks)},
		{"force-proceeds", int64(l.ForceProceeds), int64(o.fp.Force)},
	} {
		if p.fold != p.run {
			res.problem("lock seed %d: folded %s = %d, attack reports %d", lockSeed, p.what, p.fold, p.run)
		}
	}
	if (l.Failed > 0) != (o.failure != "" && o.failure != noKey) {
		res.problem("lock seed %d: the trace shows %d failed attacks, the result says %q", lockSeed, l.Failed, o.failure)
	}
}

// layerMetrics turns the account of n rounds into per-round values.
func layerMetrics(l layers, rp replayTimes, n, hdBest, allocB, gcCPU, totalCPU, plainTotal, tracedTotal float64) map[string]metric {
	per := func(v float64, unit string) metric { return metric{v / n, unit} }
	ratio := func(num, den float64, unit string) metric {
		if den <= 0 {
			return metric{0, unit}
		}
		return metric{num / den, unit}
	}
	_, iterMax := minMax(l.IterMs)
	return map[string]metric{
		"engine.iterations":    per(float64(l.Iterations), "count"),
		"engine.dips":          per(float64(l.DIPs), "count"),
		"engine.repeats":       per(float64(l.Repeats), "count"),
		"engine.iter_ms_p50":   {median(l.IterMs), "ms"},
		"engine.iter_ms_max":   {iterMax, "ms"},
		"sat.miter_solve_s":    per(l.SolveS, "s"),
		"sat.final_unsat_s":    per(l.FinalUnsatS, "s"),
		"sat.conflicts":        per(float64(l.Conflicts), "count"),
		"sat.propagations":     per(float64(l.Propagations), "count"),
		"sat.decisions":        per(float64(l.Decisions), "count"),
		"sat.restarts":         per(float64(l.Restarts), "count"),
		"sat.conflicts_per_s":  ratio(float64(l.SolveConflicts), l.SolveS, "1/s"),
		"sat.props_per_s":      ratio(float64(l.SolveProps), l.SolveS, "1/s"),
		"oracle.sample_s":      per(l.SampleS, "s"),
		"oracle.queries":       per(float64(l.Queries), "count"),
		"oracle.samples_per_s": ratio(float64(l.Queries), l.SampleS, "1/s"),
		"oracle.eval_sample_s": per(l.EvalSampleS, "s"),
		"cnf.build_s":          per(l.BuildS, "s"),
		"cnf.enumerate_s":      per(rp.EnumerateS, "s"),
		"cnf.keys_enumerated":  per(float64(l.KeysEnumerated), "count"),
		"cnf.encode_s":         per(rp.EncodeS, "s"),
		"cnf.vars":             per(float64(l.FinalVars), "count"),
		"cnf.clauses":          per(float64(l.FinalClauses), "count"),
		"errprop.ber_s":        per(rp.BERS, "s"),
		"errprop.estimates":    per(float64(rp.Estimates), "count"),
		"core.forks":           per(float64(l.Forks), "count"),
		"core.force_proceeds":  per(float64(l.ForceProceeds), "count"),
		"core.dead":            per(float64(l.Dead), "count"),
		"core.clone_s":         per(rp.CloneS, "s"),
		"core.repeat_s":        per(l.RepeatS, "s"),
		"core.post_sample_s":   per(l.PostSampleS, "s"),
		"core.replay_s":        per(rp.EnumerateS+rp.BERS+rp.EncodeS, "s"),
		"metrics.eval_s":       per(l.EvalS, "s"),
		"metrics.key_sim_s":    per(l.KeySimS, "s"),
		"metrics.hd_best":      {hdBest, "ratio"},
		"runtime.alloc_mb":     per(allocB/(1<<20), "MB"),
		"runtime.gc_cpu_frac":  ratio(gcCPU, totalCPU, "ratio"),
		"trace.overhead_frac":  ratio(tracedTotal-plainTotal, plainTotal, "ratio"),
		"trace.unattributed_s": per(l.UnattributedS, "s"),
	}
}

// printLayers prints the attack-phase partition, the eval split, the
// replay next to the in-run post-sample block, and every metric.
func printLayers(out io.Writer, cfg config, n float64, l layers, rp replayTimes, m map[string]metric) {
	fmt.Fprintf(out, "workload %s, seed %d: %d traced attacks, %d failed (sums per round of %d attacks)\n",
		cfg.w.name, cfg.seed, l.Attacks, l.Failed, len(cfg.w.panel))
	share := func(v, of float64) float64 {
		if of <= 0 {
			return 0
		}
		return 100 * v / of
	}
	fmt.Fprintf(out, "  attack phase %.4f s:\n", l.AttackS/n)
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"cnf.build", l.BuildS}, {"sat.miter_solve", l.SolveS}, {"core.repeat", l.RepeatS},
		{"oracle.sample", l.SampleS}, {"core.post_sample", l.PostSampleS}, {"unattributed", l.UnattributedS},
	} {
		fmt.Fprintf(out, "    %-18s %9.4f s %6.1f%%\n", p.name, p.v/n, share(p.v, l.AttackS))
	}
	if l.EvalS > 0 {
		fmt.Fprintf(out, "  eval phase %.4f s:\n", l.EvalS/n)
		fmt.Fprintf(out, "    %-18s %9.4f s %6.1f%%\n", "oracle.eval_sample", l.EvalSampleS/n, share(l.EvalSampleS, l.EvalS))
		fmt.Fprintf(out, "    %-18s %9.4f s %6.1f%%\n", "metrics.key_sim", l.KeySimS/n, share(l.KeySimS, l.EvalS))
	}
	fmt.Fprintf(out, "  replay of the DIP sequence (outside the run, timed per call):\n")
	fmt.Fprintf(out, "    cnf.enumerate %.4f s + errprop.ber %.4f s + cnf.encode %.4f s = %.4f s  vs in-run core.post_sample %.4f s\n",
		rp.EnumerateS/n, rp.BERS/n, rp.EncodeS/n, (rp.EnumerateS+rp.BERS+rp.EncodeS)/n, l.PostSampleS/n)
	fmt.Fprintf(out, "    core.clone %.4f s  (inside in-run core.repeat %.4f s)\n", rp.CloneS/n, l.RepeatS/n)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-22s %12.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
