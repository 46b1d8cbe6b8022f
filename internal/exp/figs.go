package exp

import (
	"context"
	"fmt"
	"io"
	"strings"
)

// Fig4Row is one bar pair of Fig. 4: StatSAT iterations (winning
// instance) vs standard SAT iterations on the deterministic circuit.
type Fig4Row struct {
	Bench         string
	Label         string
	EpsPct        float64
	StatSATIters  int
	StandardIters int
}

// Fig4 regenerates the iteration comparison from the Table II runs.
func Fig4(ctx context.Context, p Profile, w io.Writer) ([]Fig4Row, error) {
	rows, err := tableIICached(ctx, p)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "FIG 4: iterations of StatSAT (winning instance) vs standard SAT (profile %s)\n", p.Name)
	fmt.Fprintf(w, "%-12s %4s %6s %10s %10s  %s\n", "Bench", "", "eps%", "StatSAT", "StdSAT", "bar (# = StatSAT, . = StdSAT)")
	hr(w, 92)
	var out []Fig4Row
	maxIter := 1
	for _, r := range rows {
		if r.Iterations > maxIter {
			maxIter = r.Iterations
		}
		if r.StdIterations > maxIter {
			maxIter = r.StdIterations
		}
	}
	for _, r := range rows {
		fr := Fig4Row{Bench: r.Bench, Label: r.Label, EpsPct: r.EpsPct,
			StatSATIters: r.Iterations, StandardIters: r.StdIterations}
		out = append(out, fr)
		fmt.Fprintf(w, "%-12s (%s) %6.2f %10d %10d  %s\n",
			fr.Bench, fr.Label, fr.EpsPct, fr.StatSATIters, fr.StandardIters,
			bar(fr.StatSATIters, maxIter, '#')+" "+bar(fr.StandardIters, maxIter, '.'))
	}
	return out, nil
}

// Fig5Row is one bar group of Fig. 5: T_attack per eps_g and T_eval
// per key, against the standard SAT attack time.
type Fig5Row struct {
	Bench          string
	Label          string
	EpsPct         float64
	AttackSeconds  float64
	EvalPerKeySecs float64
	StdSeconds     float64
}

// Fig5 regenerates the timing comparison from the Table II runs.
func Fig5(ctx context.Context, p Profile, w io.Writer) ([]Fig5Row, error) {
	rows, err := tableIICached(ctx, p)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "FIG 5: T_attack and per-key T_eval vs standard SAT time (profile %s)\n", p.Name)
	fmt.Fprintf(w, "%-12s %4s %6s %12s %12s %12s\n", "Bench", "", "eps%", "T_attack(s)", "T_eval/key(s)", "T_stdSAT(s)")
	hr(w, 66)
	var out []Fig5Row
	for _, r := range rows {
		fr := Fig5Row{Bench: r.Bench, Label: r.Label, EpsPct: r.EpsPct,
			AttackSeconds: r.AttackSeconds, EvalPerKeySecs: r.EvalPerKeySecs, StdSeconds: r.StdSeconds}
		out = append(out, fr)
		fmt.Fprintf(w, "%-12s (%s) %6.2f %12.3f %12.3f %12.3f\n",
			fr.Bench, fr.Label, fr.EpsPct, fr.AttackSeconds, fr.EvalPerKeySecs, fr.StdSeconds)
	}
	return out, nil
}

// Fig6Point is one scatter point of Fig. 6: FM(K*) vs total time,
// annotated with N_inst.
type Fig6Point struct {
	Bench        string
	NInst        int
	TotalSeconds float64
	FMBest       float64
	Correct      bool
}

// Fig6 regenerates the time/quality trade-off from the Table III runs.
func Fig6(ctx context.Context, p Profile, w io.Writer) ([]Fig6Point, error) {
	rows, err := tableIIICached(ctx, p)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "FIG 6: FM(K*) vs total attack time, annotated with N_inst (profile %s)\n", p.Name)
	fmt.Fprintf(w, "%-12s %6s %12s %9s %5s\n", "Bench", "Ninst", "T_total(s)", "FM(K*)", "corr")
	hr(w, 50)
	var out []Fig6Point
	for _, r := range rows {
		if r.NumKeys == 0 {
			continue
		}
		pt := Fig6Point{Bench: r.Bench, NInst: r.NInst, TotalSeconds: r.TotalSeconds,
			FMBest: r.FMBest, Correct: r.Correct}
		out = append(out, pt)
		fmt.Fprintf(w, "%-12s %6d %12.2f %9.4f %5v\n", pt.Bench, pt.NInst, pt.TotalSeconds, pt.FMBest, pt.Correct)
	}
	return out, nil
}

func bar(v, max int, ch byte) string {
	const width = 24
	n := 0
	if max > 0 {
		n = v * width / max
	}
	if n > width {
		n = width
	}
	return strings.Repeat(string(ch), n)
}

// AblationRow is one line of the design-choice ablation study
// (DESIGN.md §5): gating and key-averaging switched off one at a time.
type AblationRow struct {
	Variant   string
	NumKeys   int
	HDBest    float64
	Correct   bool
	Dead      int
	Forks     int
	AttackSec float64
}

// Ablations runs StatSAT variants on the suite's highest-BER workload
// (seq at its hottest eps point — the regime where gating and
// duplication carry the attack): full (paper defaults), no-U-gating
// (U_lambda=0.5), no-E-gating (E_lambda=1.0), no-duplication
// (N_inst=1) and single-key BER estimation (N_satis=1).
func Ablations(ctx context.Context, p Profile, w io.Writer) ([]AblationRow, error) {
	wl, err := BuildWorkload(p, "seq")
	if err != nil {
		return nil, err
	}
	epsPts := p.epsList(paperEps["seq"])
	eps := epsPts[len(epsPts)-1]
	fmt.Fprintf(w, "ABLATIONS on %s at eps=%.2f%% (profile %s)\n", wl.Orig.Name, eps*100, p.Name)
	fmt.Fprintf(w, "%-16s %4s %9s %5s %5s %6s %9s\n", "Variant", "|K|", "HD(K*)", "corr", "dead", "forks", "T_atk(s)")
	hr(w, 60)

	variants := []struct {
		name   string
		mutate func(*Profile, *float64, *float64, *int, *int)
	}{
		{"full", func(*Profile, *float64, *float64, *int, *int) {}},
		{"no-U-gating", func(_ *Profile, ul *float64, _ *float64, _ *int, _ *int) { *ul = 0.5 }},
		{"no-E-gating", func(_ *Profile, _ *float64, el *float64, _ *int, _ *int) { *el = 1.0 }},
		{"no-duplication", func(_ *Profile, _ *float64, _ *float64, ni *int, _ *int) { *ni = 1 }},
		{"single-key-BER", func(_ *Profile, _ *float64, _ *float64, _ *int, ns *int) { *ns = 1 }},
	}
	// One scheduler job per variant, all sharing one workload.
	rows := make([]AblationRow, len(variants))
	emitted := 0
	err = runOrdered(ctx, p.workers(), len(variants), func(i int) error {
		v := variants[i]
		pp := p                      // each job mutates its own profile copy
		uLambda, eLambda := 0.0, 0.0 // 0 selects the paper defaults
		nInst, nSatis := pp.MaxNInst, pp.NSatis
		v.mutate(&pp, &uLambda, &eLambda, &nInst, &nSatis)
		opts := pp.attackOpts(eps, nInst, deriveSeed(p.Seed, "ablation-attack", v.name))
		opts.ULambda = uLambda
		opts.ELambda = eLambda
		opts.NSatis = nSatis
		out, err := runAttack(ctx, pp, wl, eps, opts,
			deriveSeed(p.Seed, "ablation-oracle", v.name),
			fmt.Sprintf("ablation/%s", v.name))
		if err != nil {
			return err
		}
		row := AblationRow{Variant: v.name}
		if out.Res != nil {
			row.Dead = out.Res.DeadInstances
			row.Forks = out.Res.Forks
			row.AttackSec = out.Res.AttackDuration.Seconds()
			if out.Res.Best != nil {
				row.NumKeys = len(out.Res.Keys)
				row.HDBest = out.Res.Best.HD
				row.Correct = out.CorrectAny
			}
		}
		rows[i] = row
		return nil
	}, func(i int) {
		row := rows[i]
		fmt.Fprintf(w, "%-16s %4d %9.4f %5v %5d %6d %9.2f\n",
			row.Variant, row.NumKeys, row.HDBest, row.Correct, row.Dead, row.Forks, row.AttackSec)
		emitted = i + 1
	})
	if err != nil {
		return rows[:emitted], err
	}
	return rows, nil
}
