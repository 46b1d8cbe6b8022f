package main

import (
	"fmt"
	"sync"

	"statsat/internal/oracle"
)

// callLog collects the timed oracle calls of one traced attack.
type callLog struct {
	clk   clock
	mu    sync.Mutex
	calls []oracleCall
}

func (l *callLog) add(c oracleCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *callLog) snapshot() []oracleCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]oracleCall(nil), l.calls...)
}

// timedOracle times every call into a scalar chip (the deterministic
// oracle) and forwards the query-count split.
type timedOracle struct {
	inner oracle.Oracle
	log   *callLog
}

func (o *timedOracle) Query(x []bool) []bool {
	t := o.log.clk.now()
	y := o.inner.Query(x)
	o.log.add(oracleCall{Start: t, End: o.log.clk.now(), Queries: 1})
	return y
}

func (o *timedOracle) NumInputs() int  { return o.inner.NumInputs() }
func (o *timedOracle) NumOutputs() int { return o.inner.NumOutputs() }
func (o *timedOracle) Queries() int64  { return o.inner.Queries() }

func (o *timedOracle) ScalarQueries() int64 {
	return o.inner.(oracle.QueryBreakdown).ScalarQueries()
}

func (o *timedOracle) BatchQueries() int64 {
	return o.inner.(oracle.QueryBreakdown).BatchQueries()
}

// timedBlockOracle adds the blocked sampling and noise-stream
// interfaces of the probabilistic chip.
type timedBlockOracle struct {
	timedOracle
}

func (o *timedBlockOracle) QueryBatch(x []bool) []uint64 { return o.QueryBlock(x, 1) }

func (o *timedBlockOracle) QueryBlock(x []bool, words int) []uint64 {
	t := o.log.clk.now()
	before := o.inner.Queries()
	out := o.inner.(oracle.BlockQuerier).QueryBlock(x, words)
	o.log.add(oracleCall{Start: t, End: o.log.clk.now(), Queries: o.inner.Queries() - before})
	return out
}

func (o *timedBlockOracle) BlockWords() int { return o.inner.(oracle.BlockQuerier).BlockWords() }

func (o *timedBlockOracle) NoiseDraws() uint64 { return o.inner.(oracle.NoiseCounter).NoiseDraws() }

func (o *timedBlockOracle) SkipNoiseDraws(n uint64) {
	o.inner.(oracle.NoiseCounter).SkipNoiseDraws(n)
}

// interfaceSet names the optional oracle interfaces o implements.
func interfaceSet(o oracle.Oracle) string {
	s := ""
	if _, ok := o.(oracle.BatchQuerier); ok {
		s += " batch"
	}
	if _, ok := o.(oracle.BlockQuerier); ok {
		s += " block"
	}
	if _, ok := o.(oracle.NoiseCounter); ok {
		s += " noise"
	}
	if _, ok := o.(oracle.QueryBreakdown); ok {
		s += " breakdown"
	}
	return s
}

// timeOracle wraps inner so that every call is logged, and returns an
// error unless the wrapper implements exactly the optional interfaces
// inner does: the attack must see the same chip either way.
func timeOracle(inner oracle.Oracle, log *callLog) (oracle.Oracle, error) {
	base := timedOracle{inner: inner, log: log}
	var w oracle.Oracle = &base
	if _, ok := inner.(oracle.BlockQuerier); ok {
		w = &timedBlockOracle{base}
	}
	if got, want := interfaceSet(w), interfaceSet(inner); got != want {
		return nil, fmt.Errorf("oracle wrapper implements {%s}, chip implements {%s}", got, want)
	}
	return w, nil
}
