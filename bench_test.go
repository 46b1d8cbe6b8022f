// bench_test.go wires one testing.B benchmark to every table and
// figure of the paper's evaluation (§V), plus the DESIGN.md §5
// ablations. Each bench runs the corresponding experiment at the
// "smoke" profile so `go test -bench=. -benchmem` regenerates the full
// row set in minutes; run `cmd/experiments -profile quick|paper` for
// larger instances of the same code paths.
package statsat_test

import (
	"context"
	"io"
	"os"
	"testing"

	"statsat/internal/exp"
)

// benchWriter sends experiment tables to stdout on the first benchmark
// iteration only, so `-bench` output stays readable.
func benchWriter(i int) io.Writer {
	if i == 0 {
		return os.Stdout
	}
	return io.Discard
}

// smokeSeq pins the experiment scheduler to one worker so each
// generator's time measures the experiment's own work, independent of
// the machine's CPU count. BenchmarkTableII_Parallel measures the pool
// itself.
var smokeSeq = func() exp.Profile {
	p := exp.Smoke
	p.Workers = 1
	return p
}()

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.TableI(context.Background(), smokeSeq, benchWriter(i))
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableII(context.Background(), smokeSeq, benchWriter(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableIII(context.Background(), smokeSeq, benchWriter(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableIV(context.Background(), smokeSeq, benchWriter(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableV(context.Background(), smokeSeq, benchWriter(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_Parallel runs the same Table II workload with one
// scheduler worker per CPU (Profile.Workers = 0, the default). The
// speed-up over BenchmarkTableII tracks the core count; the rows are
// byte-identical either way (TestParallelOutputByteIdentical).
func BenchmarkTableII_Parallel(b *testing.B) {
	p := exp.Smoke
	p.Workers = 0
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableII(context.Background(), p, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig4(context.Background(), smokeSeq, benchWriter(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig5(context.Background(), smokeSeq, benchWriter(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6(context.Background(), smokeSeq, benchWriter(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Ablations(context.Background(), smokeSeq, benchWriter(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDefense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Defense(context.Background(), smokeSeq, benchWriter(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepNs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.SweepNs(context.Background(), smokeSeq, benchWriter(i)); err != nil {
			b.Fatal(err)
		}
	}
}
