package main

import (
	"context"
	"fmt"
	"time"

	"statsat/internal/circuit"
	"statsat/internal/cnf"
	"statsat/internal/errprop"
	"statsat/internal/trace"
)

// replayTimes splits the in-run post-sample block (and fork cloning)
// by calling the layers' public functions on the recorded DIP
// sequence, one timed call at a time.
type replayTimes struct {
	EnumerateS, BERS, EncodeS, CloneS float64
	Estimates                         int
}

func (r *replayTimes) add(o replayTimes) {
	r.EnumerateS += o.EnumerateS
	r.BERS += o.BERS
	r.EncodeS += o.EncodeS
	r.CloneS += o.CloneS
	r.Estimates += o.Estimates
}

// replayInst is one instance's formulas during the replay.
type replayInst struct {
	m  *cnf.Miter
	ks *cnf.KeySolver
}

// replay re-executes one traced attack's DIP handling. Every recorded
// DIP is enumerated (StatSAT only, nSatis keys), BER-estimated over the
// enumerated keys, and encoded into the instance's miter and key
// solver with its recording-time pins; every fork clones both solvers.
// Pins added later by forks and force-proceeds are not replayed (their
// events name the bit but not the DIP), so the replayed formulas are
// at most as constrained as the run's.
func replay(ctx context.Context, locked *circuit.Circuit, evs []stamped, nSatis int, epsG float64) (replayTimes, error) {
	var r replayTimes
	insts := map[int]*replayInst{}
	est := errprop.NewEstimator(locked)
	timed := func(dst *float64, f func()) {
		t := time.Now()
		f()
		*dst += time.Since(t).Seconds()
	}
	get := func(id int) (*replayInst, error) {
		if in, ok := insts[id]; ok {
			return in, nil
		}
		if id != 0 {
			return nil, fmt.Errorf("replay: instance %d appears before its fork", id)
		}
		m, err := cnf.NewMiter(locked)
		if err != nil {
			return nil, err
		}
		in := &replayInst{m: m, ks: cnf.NewKeySolver(locked)}
		insts[id] = in
		return in, nil
	}
	for _, s := range evs {
		ev := s.Ev
		switch {
		case ev.Type == trace.DIPFound && ev.DIP != nil:
			in, err := get(ev.Instance)
			if err != nil {
				return r, err
			}
			x := parseBits(ev.DIP.X)
			if nSatis > 0 {
				var cand [][]bool
				timed(&r.EnumerateS, func() { cand = in.ks.EnumerateKeys(ctx, nSatis) })
				if len(cand) > 0 {
					timed(&r.BERS, func() { _, err = est.AverageOutputBERs(x, cand, epsG) })
					if err != nil {
						return r, err
					}
					r.Estimates++
				}
			}
			timed(&r.EncodeS, func() { err = encodeDIP(in, x, ev.DIP.Y) })
			if err != nil {
				return r, err
			}
		case ev.Type == trace.IterEnd && ev.Status == "dead" && nSatis > 0:
			// The run enumerated and found no key; time the enumeration.
			in, err := get(ev.Instance)
			if err != nil {
				return r, err
			}
			timed(&r.EnumerateS, func() { in.ks.EnumerateKeys(ctx, nSatis) })
		case ev.Type == trace.Fork && ev.Fork != nil:
			in, err := get(ev.Instance)
			if err != nil {
				return r, err
			}
			var child *replayInst
			timed(&r.CloneS, func() { child = &replayInst{m: in.m.Clone(), ks: in.ks.Clone()} })
			insts[ev.Fork.Child] = child
		}
	}
	return r, nil
}

// encodeDIP adds the DIP copies and pins the specified output bits of
// y ('0', '1', or 'x' for unspecified).
func encodeDIP(in *replayInst, x []bool, y string) error {
	outA, outB, err := in.m.AddDIPCopies(x)
	if err != nil {
		return err
	}
	outs, err := in.ks.AddDIPCopy(x)
	if err != nil {
		return err
	}
	for i := 0; i < len(y) && i < len(outs); i++ {
		if y[i] == 'x' {
			continue
		}
		v := y[i] == '1'
		cnf.Equal(in.m.S, outA[i], v)
		cnf.Equal(in.m.S, outB[i], v)
		cnf.Equal(in.ks.S, outs[i], v)
	}
	return nil
}

func parseBits(s string) []bool {
	b := make([]bool, len(s))
	for i := range s {
		b[i] = s[i] == '1'
	}
	return b
}
