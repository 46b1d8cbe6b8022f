// Command perfbench is the repository's attack benchmark. It runs one
// named workload for a time budget, checks every recovered key against
// the lock key, and prints every metric by name and unit; the last line
// of standard output is one JSON object.
//
//	bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics on untraced attacks.
// --trace 1 runs each attack untraced and then traced, and prints the
// per-layer split folded from the trace, the oracle-call log and a
// timed replay of the recorded DIP sequence. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a plain run sets up each attack's
// inputs (keeping the last): setup_s is the median of these samples.
const setupReps = 5

// maxProcs caps GOMAXPROCS so runs compare across machines with more
// cores; the attacks themselves run with Parallel off.
const maxProcs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	w       workload
	seed    int64
	budget  time.Duration
	fpStore *fpStore
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: draws StatSAT's key-evaluation randomness")
	secs := fs.Int("seconds", 10, "time budget; rounds repeat while the next one fits")
	tr := fs.Int("trace", 0, "0: end-to-end metrics from untraced attacks; 1: per-layer metrics from traced attacks")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *secs < 1 || (*tr != 0 && *tr != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*secs)*time.Second, *tr == 1, *cpuProfile, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload traced or untraced and records the run's
// trajectory fingerprints.
func measure(w workload, seed int64, budget time.Duration, traced bool, cpuProfile string, out io.Writer) (result, error) {
	if runtime.NumCPU() > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	store, err := openFingerprints(w.name, seed)
	if err != nil {
		return result{}, err
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return result{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return result{}, err
		}
		defer pprof.StopCPUProfile()
	}
	cfg := config{w: w, seed: seed, budget: budget, fpStore: store}
	var res result
	if traced {
		res, err = tracedRun(context.Background(), cfg, out)
	} else {
		res, err = plainRun(context.Background(), cfg, out)
	}
	if err != nil {
		return res, err
	}
	return res, store.save()
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems lists every failed check; Correct is false when any.
	problems []string
}

func (r *result) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// rounds attacks every panel entry once per round, and starts another
// round only while it is predicted to fit in the budget (taking as long
// as the last one). At least one round runs.
func rounds(budget time.Duration, panel int, attack func(round, j int) error) error {
	start := time.Now()
	for r := 0; ; r++ {
		t := time.Now()
		for j := 0; j < panel; j++ {
			if err := attack(r, j); err != nil {
				return err
			}
		}
		if time.Since(start)+time.Since(t) > budget {
			return nil
		}
	}
}

// plainRun measures the end-to-end metrics on untraced attacks. Times
// and queries are summed over a round's attacks; the reported value is
// the median over the run's rounds.
func plainRun(ctx context.Context, cfg config, out io.Writer) (result, error) {
	var (
		res                                     result
		setupS, attackS, evalS, totalS, queries []float64
		hd                                      []float64
		recovered                               int
	)
	err := rounds(cfg.budget, len(cfg.w.panel), func(r, j int) error {
		if j == 0 {
			attackS, evalS, totalS, queries = append(attackS, 0), append(evalS, 0), append(totalS, 0), append(queries, 0)
		}
		var in inputs
		for k := 0; k < setupReps; k++ {
			runtime.GC()
			t := time.Now()
			var err error
			if in, err = cfg.w.setup(cfg.seed, j); err != nil {
				return err
			}
			setupS = append(setupS, time.Since(t).Seconds())
		}
		runtime.GC()
		o := cfg.w.run(ctx, in, in.chip, nil)
		if err := cfg.tally(&res, out, j, in, &o); err != nil {
			return err
		}
		if o.recovered {
			recovered++
		}
		attackS[r] += (o.total - o.eval).Seconds()
		evalS[r] += o.eval.Seconds()
		totalS[r] += o.total.Seconds()
		queries[r] += float64(o.fp.Queries)
		if cfg.w.statsat() {
			hd = append(hd, o.hd)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	res.Metrics = map[string]metric{
		"attack_s":       {median(attackS), "s"},
		"total_s":        {median(totalS), "s"},
		"setup_s":        {median(setupS), "s"},
		"key_recovered":  {float64(recovered) / float64(res.Attempted), "share"},
		"oracle_queries": {median(queries), "count"},
		"peak_rss_mb":    {rss, "MB"},
	}
	res.Correct = len(res.problems) == 0
	fmt.Fprintf(out, "workload %s, seed %d: %d rounds of %d attacks, %d failed\n",
		cfg.w.name, cfg.seed, len(totalS), len(cfg.w.panel), res.Failed)
	rows := []row{
		{"attack_s", "s", "round", attackS},
		{"total_s", "s", "round", totalS},
		{"setup_s", "s", "attack", setupS},
		{"oracle_queries", "count", "round", queries},
	}
	if cfg.w.statsat() {
		rows = append(rows, row{"eval_s", "s", "round", evalS}, row{"hd_best", "ratio", "attack", hd})
	}
	printRows(out, rows)
	fmt.Fprintf(out, "  %-16s %10.4g  share, higher is better\n", "key_recovered", res.Metrics["key_recovered"].Value)
	fmt.Fprintf(out, "  %-16s %10.4g  MB\n", "peak_rss_mb", res.Metrics["peak_rss_mb"].Value)
	printProblems(out, res.problems)
	return res, nil
}

// tally checks one attack's keys and counts it into res: attempted,
// failed, a wrong SAT key, and its trajectory fingerprint against the
// earlier rounds and runs.
func (cfg config) tally(res *result, out io.Writer, j int, in inputs, o *outcome) error {
	if err := o.check(cfg.w, in); err != nil {
		return err
	}
	res.Attempted++
	fmt.Fprintf(out, "lock seed %d: attack %.3f s, eval %.3f s, %s\n",
		in.lockSeed, (o.total - o.eval).Seconds(), o.eval.Seconds(), o.fp)
	if o.failure != "" {
		res.Failed++
		fmt.Fprintf(out, "lock seed %d: attack failed: %s\n", in.lockSeed, o.failure)
	}
	if o.wrongKey {
		res.problem("lock seed %d: the SAT attack returned a key that does not unlock the circuit", in.lockSeed)
	}
	cfg.fpStore.check(res, j, o.fp)
	return nil
}

// row is one printed metric: its samples, one per round or attack.
type row struct {
	name, unit, per string
	vals            []float64
}

func printRows(out io.Writer, rows []row) {
	fmt.Fprintf(out, "  %-16s %10s %10s %10s %4s  %s\n", "metric", "median", "min", "max", "n", "unit (all: lower is better)")
	for _, r := range rows {
		lo, hi := minMax(r.vals)
		fmt.Fprintf(out, "  %-16s %10.4g %10.4g %10.4g %4d  %s per %s\n", r.name, median(r.vals), lo, hi, len(r.vals), r.unit, r.per)
	}
}

func printProblems(out io.Writer, problems []string) {
	for _, p := range problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// median is the middle value of v, or the mean of the middle two.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func minMax(v []float64) (float64, float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
