package core

import (
	"sync"
	"testing"

	"attrank/internal/graph"
	"attrank/internal/sparse"
	"attrank/internal/synth"
)

// benchNet lazily generates a ~100k-paper synthetic power-law citation
// network (the DBLP profile scaled ×5) shared by the benchmarks below.
var benchNet = struct {
	once sync.Once
	net  *graph.Network
	err  error
}{}

func bench100k(b *testing.B) *graph.Network {
	b.Helper()
	benchNet.once.Do(func() {
		benchNet.net, benchNet.err = synth.Generate(synth.DBLP().Scale(5))
	})
	if benchNet.err != nil {
		b.Fatal(benchNet.err)
	}
	return benchNet.net
}

func benchState(b *testing.B) (*sparse.Stochastic, []float64, []float64, []float64, []float64) {
	net := bench100k(b)
	s, err := net.StochasticMatrix()
	if err != nil {
		b.Fatal(err)
	}
	n := net.N()
	att := AttentionVector(net, net.MaxYear(), 3)
	rec := RecencyVector(net, net.MaxYear(), -0.16)
	return s, sparse.Uniform(n), make([]float64, n), att, rec
}

// BenchmarkIteration100kSerialReference is the serial CSC baseline, for
// placing the tiled kernel's numbers (iter_fused_ns in BENCH_core.json)
// against the reference kernel.
func BenchmarkIteration100kSerialReference(b *testing.B) {
	s, x, next, att, rec := benchState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MulVec(next, x)
		for j := range next {
			next[j] = 0.5*next[j] + 0.3*att[j] + 0.2*rec[j]
		}
		_ = sparse.L1Diff(next, x)
	}
}

// BenchmarkRank100kWarmOperator measures a full re-rank through a compiled
// operator (matrix state and pool reused, warm-started from the previous
// scores) — the live-ingestion steady state.
func BenchmarkRank100kWarmOperator(b *testing.B) {
	net := bench100k(b)
	op := Compile(net)
	p := Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16, Workers: -1}
	res, err := op.Rank(net.MaxYear(), p)
	if err != nil {
		b.Fatal(err)
	}
	p.Start = res.Scores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op.Rank(net.MaxYear(), p); err != nil {
			b.Fatal(err)
		}
	}
}
