// Package repro's top-level benchmarks regenerate each figure of the
// paper's evaluation at reduced size, one testing.B benchmark per table
// or figure. Run the full harness with cmd/dlhub-bench; these benches
// exist so `go test -bench=.` exercises every experiment path and
// reports per-figure wall costs.
package repro

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/simconst"
)

// benchCfg returns a heavily reduced configuration so each figure
// completes in seconds under `go test -bench`.
func benchCfg() bench.Config {
	return bench.Config{
		Requests:     10,
		Fig5Sizes:    []int{1, 5, 10},
		Fig6Sizes:    []int{50, 100},
		Fig7N:        100,
		Fig7Replicas: []int{1, 2, 4},
		Seed:         42,
	}
}

func runFigure(b *testing.B, fig func(bench.Config) (*bench.Table, error)) {
	b.Helper()
	// Compress injected environmental latencies (container starts, WAN
	// RTTs) 10x so benches measure the serving machinery, not sleeps.
	old := simconst.Scale
	simconst.Scale = 10
	defer func() { simconst.Scale = old }()
	for i := 0; i < b.N; i++ {
		table, err := fig(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkTable1FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bench.Table1().Rows) != 8 {
			b.Fatal("Table I should have 8 dimensions")
		}
	}
}

func BenchmarkTable2FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bench.Table2().Rows) != 8 {
			b.Fatal("Table II should have 8 dimensions")
		}
	}
}

func BenchmarkFig3ServablePerformance(b *testing.B) { runFigure(b, bench.Fig3) }

func BenchmarkFig4Memoization(b *testing.B) { runFigure(b, bench.Fig4) }

func BenchmarkFig5Batching(b *testing.B) { runFigure(b, bench.Fig5) }

func BenchmarkFig6BatchScaling(b *testing.B) { runFigure(b, bench.Fig6) }

func BenchmarkFig7ReplicaScaling(b *testing.B) { runFigure(b, bench.Fig7) }

func BenchmarkFig8ServingComparison(b *testing.B) { runFigure(b, bench.Fig8) }
