package core

import (
	"runtime"
	"testing"

	"attrank/internal/graph"
	"attrank/internal/sparse"
	"attrank/internal/synth"
)

func workerCounts() []int {
	return []int{0, -1, 1, 2, 7, runtime.GOMAXPROCS(0)}
}

// rankReference is the serial CSC power iteration the tiled kernel is
// checked against: Stochastic.MulVec, the combine α·Sx + β·A + γ·T and a
// sequential L1Diff, all in original paper-id order, from the start
// vector and with the stopping test Operator.Rank uses. It is for α > 0;
// Rank's α = 0 evaluation touches no kernel.
func rankReference(t testing.TB, net *graph.Network, now int, p Params) *Result {
	t.Helper()
	s, err := net.StochasticMatrix()
	if err != nil {
		t.Fatal(err)
	}
	n := net.N()
	att, rec := AttentionVector(net, now, p.AttentionYears), RecencyVector(net, now, p.W)
	res := &Result{Attention: att, Recency: rec}
	x, next := make([]float64, n), make([]float64, n)
	if p.Start != nil {
		copy(x, p.Start)
		sparse.Normalize(x)
	} else {
		sparse.Fill(x, 1/float64(n))
	}
	for iter := 1; iter <= p.maxIter(); iter++ {
		s.MulVec(next, x)
		for i := range next {
			next[i] = p.Alpha*next[i] + p.Beta*att[i] + p.Gamma*rec[i]
		}
		resid := sparse.L1Diff(next, x)
		res.Residuals = append(res.Residuals, resid)
		x, next = next, x
		res.Iterations = iter
		if resid < p.tol() {
			res.Converged = true
			break
		}
	}
	res.Scores = x
	return res
}

// assertBitIdentical runs Rank at every worker count and requires the
// scores, iteration count and convergence flag to equal the serial
// reference's bit for bit (==, not within an epsilon): the tiled kernel
// mirrors the serial arithmetic exactly.
func assertBitIdentical(t *testing.T, n *graph.Network, base Params) {
	t.Helper()
	serial := rankReference(t, n, n.MaxYear(), base)
	for _, workers := range workerCounts() {
		p := base
		p.Workers = workers
		par, err := Rank(n, n.MaxYear(), p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Iterations != serial.Iterations {
			t.Errorf("workers=%d: %d iterations vs serial %d", workers, par.Iterations, serial.Iterations)
		}
		if par.Converged != serial.Converged {
			t.Errorf("workers=%d: converged=%v vs serial %v", workers, par.Converged, serial.Converged)
		}
		for i := range serial.Scores {
			if par.Scores[i] != serial.Scores[i] {
				t.Fatalf("workers=%d: score %d not bit-identical: %v vs %v",
					workers, i, par.Scores[i], serial.Scores[i])
			}
		}
	}
}

// TestRankParallelMatchesSerial checks a one-tile net and the 20k DBLP
// profile, which the layout cuts into 10 tiles; every other
// assertBitIdentical net fits in one DefaultTileRows tile.
func TestRankParallelMatchesSerial(t *testing.T) {
	dblp, err := synth.Generate(synth.DBLP())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*graph.Network{randomNet(t, 31, 500), dblp} {
		assertBitIdentical(t, n, Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2})
	}
}

// danglingNet builds a network where the overwhelming majority of papers
// cite nothing: almost every column of S is dangling, so the tiled
// kernel's sequential dangling-mass gather dominates the iteration.
func danglingNet(t testing.TB, size int) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < size; i++ {
		if _, err := b.AddPaper(paperID(i), 1990+i/7, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	// Only every 25th paper has references; the rest are dangling.
	for i := 25; i < size; i += 25 {
		b.AddEdgeByIndex(int32(i), int32(i-25))
		b.AddEdgeByIndex(int32(i), int32(i/2))
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRankParallelDanglingHeavy(t *testing.T) {
	assertBitIdentical(t, danglingNet(t, 400),
		Params{Alpha: 0.4, Beta: 0.4, Gamma: 0.2, AttentionYears: 4, W: -0.1})
}

func TestRankParallelWarmStart(t *testing.T) {
	n := randomNet(t, 47, 300)
	base := Params{Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.15}
	first, err := Rank(n, n.MaxYear(), base)
	if err != nil {
		t.Fatal(err)
	}
	base.Start = first.Scores
	assertBitIdentical(t, n, base)
}

func TestRankParallelAlphaZeroFastPath(t *testing.T) {
	n := randomNet(t, 53, 200)
	for _, workers := range workerCounts() {
		p := Params{Alpha: 0, Beta: 0.6, Gamma: 0.4, AttentionYears: 3, W: -0.2, Workers: workers}
		res, err := Rank(n, n.MaxYear(), p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// α = 0 short-circuits to a single direct evaluation at every
		// worker count; no matrix is ever touched.
		if res.Iterations != 1 || !res.Converged {
			t.Fatalf("workers=%d: iterations=%d converged=%v, want 1/true",
				workers, res.Iterations, res.Converged)
		}
		for i := range res.Scores {
			want := 0.6*res.Attention[i] + 0.4*res.Recency[i]
			if res.Scores[i] != want {
				t.Fatalf("workers=%d: score %d = %v, want %v", workers, i, res.Scores[i], want)
			}
		}
	}
}

// TestParallelRankIndependentOfWorkers pins the tiled kernel's contract:
// the worker count only caps how many pool tasks claim tiles, so Rank
// and PageRank return == Scores, Iterations, Converged and every
// Residuals entry at any Workers. The 20k corpus is 10 tiles in
// one column window; the 100k corpus (two windows, the stepTileW2
// kernel) runs outside -short.
func TestParallelRankIndependentOfWorkers(t *testing.T) {
	profiles := []synth.Profile{synth.DBLP()}
	if !testing.Short() {
		profiles = append(profiles, synth.DBLP().Scale(5))
	}
	for _, prof := range profiles {
		net, err := synth.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		op := Compile(net)
		rank := func(workers int) *Result {
			p := Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16, Workers: workers}
			res, err := op.Rank(net.MaxYear(), p)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		pageRank := func(workers int) *Result {
			res, err := op.PageRank(PageRankParams{Alpha: 0.5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		for _, kernel := range []struct {
			name string
			run  func(workers int) *Result
		}{{"Rank", rank}, {"PageRank", pageRank}} {
			base := kernel.run(1)
			for _, workers := range []int{0, 2, 3, 4, 7, -1} {
				assertSameResult(t, net.N(), kernel.name, workers, kernel.run(workers), base)
			}
		}
	}
}

// assertSameResult requires got to equal want bit for bit in every
// field the worker count could reach.
func assertSameResult(t *testing.T, n int, kernel string, workers int, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("n=%d %s workers=%d: iterations/converged = %d/%v, workers=1 %d/%v",
			n, kernel, workers, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for i := range want.Residuals {
		if got.Residuals[i] != want.Residuals[i] {
			t.Fatalf("n=%d %s workers=%d: residual %d = %v, workers=1 %v",
				n, kernel, workers, i, got.Residuals[i], want.Residuals[i])
		}
	}
	for i := range want.Scores {
		if got.Scores[i] != want.Scores[i] {
			t.Fatalf("n=%d %s workers=%d: score %d = %v, workers=1 %v",
				n, kernel, workers, i, got.Scores[i], want.Scores[i])
		}
	}
}
