// statsat runs an oracle-guided attack (StatSAT, PSAT or the standard
// SAT attack) on a locked .bench netlist. The oracle is simulated from
// the same netlist activated with the correct key (-key / -keyfile),
// optionally under the paper's probabilistic gate-error model (-eps).
//
// Usage:
//
//	statsat -in locked.bench -keyfile locked.key -eps 0.0125 \
//	        -attack statsat -ninst 8 -ns 500
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"statsat/internal/attack"
	"statsat/internal/circuit"
	"statsat/internal/core"
	"statsat/internal/engine"
	"statsat/internal/metrics"
	"statsat/internal/netio"
	"statsat/internal/oracle"
	"statsat/internal/server"
	"statsat/internal/trace"
)

func main() {
	os.Exit(run())
}

// run carries the whole tool so deferred cleanup (trace flushing) still
// happens on the non-zero exit paths — os.Exit in main would skip it.
func run() int {
	var (
		in       = flag.String("in", "", "locked netlist, .bench or structural .v (keyinput* inputs)")
		format   = flag.String("format", "", "force netlist format: bench | verilog (default: by extension)")
		keyStr   = flag.String("key", "", "correct key as a 0/1 string (activates the oracle)")
		keyFile  = flag.String("keyfile", "", "file containing the correct key (0/1 string)")
		eps      = flag.Float64("eps", 0, "oracle gate error probability (0 = deterministic chip)")
		mode     = flag.String("attack", "statsat", "attack: statsat | psat | sat")
		ns       = flag.Int("ns", 500, "oracle samples per distinguishing input")
		nSatis   = flag.Int("nsatis", 100, "satisfying keys for BER estimation")
		nEval    = flag.Int("neval", 2000, "evaluation inputs for FM/HD")
		nInst    = flag.Int("ninst", 1, "maximum SAT instances")
		uLam     = flag.Float64("ulambda", 0.25, "uncertainty threshold U_lambda")
		eLam     = flag.Float64("elambda", 0.30, "estimated-BER threshold E_lambda")
		epsG     = flag.Float64("epsg", -1, "attacker's gate-error estimate (-1 = estimate via §V-E; ignored when -eps 0)")
		seed     = flag.Int64("seed", 1, "PRNG seed")
		verbose  = flag.Bool("v", false, "log attack progress and stream trace events to stderr")
		traceOut = flag.String("trace", "", "write a JSON-lines event trace to this file (schema: docs/OBSERVABILITY.md)")
		maxIter  = flag.Int("maxiter", 20000, "iteration safety cap")
		parallel = flag.Bool("parallel", false, "run SAT instances concurrently (faster, non-reproducible)")
		srvURL   = flag.String("server", "", "submit the job to a statsatd daemon at this base URL instead of attacking locally")
		pfWork   = flag.Int("portfolio-workers", 1, "portfolio solver racing: total worker bound (<= 1 = off, byte-identical to sequential)")
		pfRace   = flag.Int("portfolio-racers", 0, "racing helper configurations per miter solve (0 = default 3)")
	)
	flag.Parse()
	if *in == "" {
		return fail(fmt.Errorf("need -in <locked netlist>"))
	}
	keySrc, err := keyText(*keyStr, *keyFile)
	if err != nil {
		return fail(err)
	}
	// Ctrl-C / SIGTERM cancels the attack at the next iteration
	// boundary; the attack then returns its best-effort partial result.
	// In -server mode the same signal DELETEs the remote job.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *srvURL != "" {
		epsGuess := *epsG
		if epsGuess < 0 {
			epsGuess = 0 // daemon defaults eps_g to the true eps
		}
		return runServer(ctx, clientOptions{
			serverURL: *srvURL, in: *in, format: *format, key: keySrc,
			eps: *eps, attack: *mode, seed: *seed, verbose: *verbose,
			opts: server.SpecOptions{
				Ns: *ns, NSatis: *nSatis, NEval: *nEval, NInst: *nInst,
				ULambda: *uLam, ELambda: *eLam, EpsG: epsGuess,
				MaxIter: *maxIter, Parallel: *parallel,
				PortfolioWorkers: *pfWork, PortfolioRacers: *pfRace,
			},
		})
	}
	forced, err := netio.ParseFormat(*format)
	if err != nil {
		return fail(err)
	}
	locked, err := netio.ReadFile(*in, forced)
	if err != nil {
		return fail(err)
	}
	key, err := netio.ParseKey(keySrc, locked.NumKeys())
	if err != nil {
		return fail(err)
	}

	var orc oracle.Oracle
	if *eps > 0 {
		orc = oracle.NewProbabilistic(locked, key, *eps, *seed+1)
	} else {
		orc = oracle.NewDeterministic(locked, key)
	}

	tracer, closeTrace, err := openTrace(*traceOut, *verbose)
	if err != nil {
		return fail(err)
	}
	defer closeTrace()

	interrupted := false
	switch *mode {
	case "sat":
		res, err := attack.StandardSATOpt(ctx, locked, orc, attack.SATOptions{
			MaxIter: *maxIter, Tracer: tracer,
			PortfolioWorkers: *pfWork, PortfolioRacers: *pfRace,
		})
		if err != nil {
			if !errors.Is(err, attack.ErrInterrupted) {
				return fail(err)
			}
			interrupted = true
			fmt.Fprintln(os.Stderr, "statsat: interrupted — results below are best-effort")
		}
		if err := reportBaseline("standard SAT", res, locked, key); err != nil {
			return fail(err)
		}
	case "psat":
		res, err := attack.PSAT(ctx, locked, orc, attack.PSATOptions{
			Ns: *ns, MaxIter: *maxIter, Seed: *seed, Tracer: tracer,
			PortfolioWorkers: *pfWork, PortfolioRacers: *pfRace,
		})
		if err != nil {
			if !errors.Is(err, attack.ErrInterrupted) {
				return fail(err)
			}
			interrupted = true
			fmt.Fprintln(os.Stderr, "statsat: interrupted — results below are best-effort")
		}
		if err := reportBaseline("PSAT", res, locked, key); err != nil {
			return fail(err)
		}
	case "statsat":
		guess := *epsG
		if *eps > 0 && guess < 0 {
			fmt.Fprintln(os.Stderr, "estimating gate error probability (§V-E)...")
			guess = core.EstimateGateError(ctx, locked, orc, core.EstimateOptions{Seed: *seed})
			fmt.Fprintf(os.Stderr, "estimated eps' = %.4f%% (true value hidden from attacker)\n", guess*100)
		}
		if guess < 0 {
			guess = 0
		}
		opts := core.Options{
			Ns: *ns, NSatis: *nSatis, NEval: *nEval, NInst: *nInst,
			ULambda: *uLam, ELambda: *eLam, EpsG: guess,
			MaxTotalIter: *maxIter, Seed: *seed, Parallel: *parallel,
			PortfolioWorkers: *pfWork, PortfolioRacers: *pfRace,
			Tracer: tracer,
		}
		res, err := core.Attack(ctx, locked, orc, opts)
		if err != nil {
			if !errors.Is(err, core.ErrInterrupted) {
				return fail(err)
			}
			interrupted = true
			fmt.Fprintln(os.Stderr, "statsat: interrupted — results below are best-effort")
		}
		fmt.Printf("StatSAT: %d key(s), %d instance(s) peak, %d forks, %d force-proceeds, %d dead\n",
			len(res.Keys), res.Instances, res.Forks, res.ForceProceeds, res.DeadInstances)
		fmt.Printf("T_attack = %v, T_eval/key = %v, oracle queries = %d (+%d eval)\n",
			res.AttackDuration, res.EvalPerKey, res.OracleQueries, res.EvalQueries)
		if res.Truncated {
			fmt.Println("WARNING: iteration budget exhausted before all instances settled (-maxiter)")
		}
		if *verbose {
			fmt.Println("instance tree (id<-parent iters dips outcome):")
			for _, st := range res.InstanceStats {
				fmt.Printf("  %3d <- %3d  %5d %4d  %s\n", st.ID, st.Parent, st.Iterations, st.DIPs, st.Outcome)
			}
		}
		for i, k := range res.Keys {
			eq, err := metrics.KeysEquivalent(locked, k.Key, key)
			if err != nil {
				return fail(err)
			}
			fmt.Printf("key %d: FM=%.4f HD=%.4f iters=%d %s%s\n",
				i, k.FM, k.HD, k.Iterations, engine.BitString(k.Key), correctMarker(eq))
		}
	default:
		return fail(fmt.Errorf("unknown attack %q (want statsat, psat or sat)", *mode))
	}
	if interrupted {
		return 1
	}
	return 0
}

// openTrace assembles the requested trace sinks: a JSON-lines file for
// -trace, a human-readable stderr stream for -v, both, or none (nil
// tracer, tracing off). The closer flushes the file and is always safe
// to call.
func openTrace(path string, verbose bool) (trace.Tracer, func(), error) {
	var sinks []trace.Tracer
	closer := func() {}
	if verbose {
		sinks = append(sinks, trace.NewText(os.Stderr))
	}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		bw := bufio.NewWriter(f)
		sinks = append(sinks, trace.NewJSONL(bw))
		closer = func() {
			bw.Flush()
			f.Close()
		}
	}
	return trace.Multi(sinks...), closer, nil
}

// reportBaseline prints a SAT/PSAT result in one line, marking a key
// equivalent to the oracle's as (CORRECT) after its counters.
func reportBaseline(name string, res *attack.Result, locked *circuit.Circuit, key []bool) error {
	if res.Failed || res.Key == nil {
		fmt.Printf("%s FAILED after %d iterations (%v, %d queries)\n",
			name, res.Iterations, res.Duration, res.OracleQueries)
		return nil
	}
	eq, err := metrics.KeysEquivalent(locked, res.Key, key)
	if err != nil {
		return err
	}
	fmt.Printf("%s: key=%s iterations=%d time=%v queries=%d%s\n",
		name, engine.BitString(res.Key), res.Iterations, res.Duration, res.OracleQueries, correctMarker(eq))
	return nil
}

// correctMarker is the suffix every report mode prints after a key
// that is functionally equivalent to the correct one.
func correctMarker(correct bool) string {
	if correct {
		return "  (CORRECT)"
	}
	return ""
}

// keyText returns the correct key's 0/1 text, from -keyfile (trimmed:
// lockgen ends the file with a newline) or else -key. Local and
// -server mode both need it; netio.ParseKey checks it against the
// netlist's key inputs.
func keyText(keyStr, keyFile string) (string, error) {
	if keyFile != "" {
		b, err := os.ReadFile(keyFile)
		if err != nil {
			return "", err
		}
		keyStr = strings.TrimSpace(string(b))
	}
	if keyStr == "" {
		return "", fmt.Errorf("need -key or -keyfile with the oracle's correct key")
	}
	return keyStr, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "statsat:", err)
	return 1
}
