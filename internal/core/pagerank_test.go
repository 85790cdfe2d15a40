package core

import (
	"math"
	"math/rand"
	"testing"

	"attrank/internal/baselines"
	"attrank/internal/sparse"
)

// TestPageRankBitEqualBaselines: the operator's PageRank is a promotion
// of baselines.PageRank onto the compiled tiled kernel, and the contract
// is bit-equality, not approximation — same per-column accumulation,
// same two-operation combine, same stopping tolerance.
func TestPageRankBitEqualBaselines(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		net := randomNet(t, seed, 400)
		for _, alpha := range []float64{0.1, 0.5, 0.85} {
			ref, err := baselines.PageRank{Alpha: alpha}.Scores(net, net.MaxYear())
			if err != nil {
				t.Fatalf("alpha=%v: baseline: %v", alpha, err)
			}
			got, err := OperatorFor(net).PageRank(PageRankParams{Alpha: alpha})
			if err != nil {
				t.Fatalf("alpha=%v: %v", alpha, err)
			}
			if !got.Converged {
				t.Fatalf("alpha=%v: did not converge in %d iterations", alpha, got.Iterations)
			}
			for i := range ref {
				if got.Scores[i] != ref[i] {
					t.Fatalf("seed=%d alpha=%v: score %d = %v, baseline %v (not bit-identical)",
						seed, alpha, i, got.Scores[i], ref[i])
				}
			}
		}
	}
}

// TestPageRankParallelMatchesSerial: every worker count must reproduce
// the serial baselines.PageRank bit for bit, exactly as AttRank's tiled
// path reproduces its serial reference — the β=0/γ=1 jump-vector trick
// may not cost a single ulp.
func TestPageRankParallelMatchesSerial(t *testing.T) {
	net := randomNet(t, 23, 500)
	op := OperatorFor(net)
	serial, err := baselines.PageRank{Alpha: 0.5}.Scores(net, net.MaxYear())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts() {
		par, err := op.PageRank(PageRankParams{Alpha: 0.5, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !par.Converged {
			t.Errorf("workers=%d: did not converge in %d iterations", workers, par.Iterations)
		}
		for i := range serial {
			if par.Scores[i] != serial[i] {
				t.Fatalf("workers=%d: score %d not bit-identical: %v vs %v",
					workers, i, par.Scores[i], serial[i])
			}
		}
	}
}

// TestPageRankRelabelingInvariance: window-preserving relabelings of the
// tiled layout must not move a single score bit, mirroring the AttRank
// relabeling suite — this is what makes follower replay of the influence
// indicator layout-independent.
func TestPageRankRelabelingInvariance(t *testing.T) {
	net := randomNet(t, 321, 300)
	n := net.N()
	p := PageRankParams{Alpha: 0.5, Workers: 2}

	idOp := Compile(net)
	idOp.forcePermutation(sparse.IdentityPerm(n))
	defer idOp.Close()
	serial, err := baselines.PageRank{Alpha: p.Alpha}.Scores(net, net.MaxYear())
	if err != nil {
		t.Fatal(err)
	}
	base, err := idOp.PageRank(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if base.Scores[i] != serial[i] {
			t.Fatalf("identity layout score %d differs from serial reference", i)
		}
	}

	rng := rand.New(rand.NewSource(5))
	perms := make([][]int32, 0, 3)
	for k := 0; k < 2; k++ {
		perm := make([]int32, n)
		for i, v := range rng.Perm(n) {
			perm[i] = int32(v)
		}
		perms = append(perms, perm)
	}
	rev := make([]int32, n)
	for i := range rev {
		rev[i] = int32(n - 1 - i)
	}
	perms = append(perms, rev)

	for pi, perm := range perms {
		op := Compile(net)
		op.forcePermutation(perm)
		got, err := op.PageRank(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != base.Iterations || got.Converged != base.Converged {
			t.Fatalf("perm %d: iters/converged = %d/%v, want %d/%v",
				pi, got.Iterations, got.Converged, base.Iterations, base.Converged)
		}
		for i := range base.Scores {
			if got.Scores[i] != base.Scores[i] {
				t.Fatalf("perm %d: score %d = %v, want %v (not bit-identical)",
					pi, i, got.Scores[i], base.Scores[i])
			}
		}
		op.Close()
	}
}

// TestPageRankProbabilityVector: converged scores are a probability
// vector (non-negative, summing to 1 within float error) — the property
// the percentile thresholds in internal/impact rely on.
func TestPageRankProbabilityVector(t *testing.T) {
	net := randomNet(t, 99, 250)
	res, err := OperatorFor(net).PageRank(PageRankParams{Alpha: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, v := range res.Scores {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("score %d = %v", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("scores sum to %v, want 1", sum)
	}
}

// TestPageRankBudgetExhaustion: an unreachable tolerance reports
// Converged=false with the final iterate, never an error — the ingest
// pipeline publishes what it has rather than dropping the epoch.
func TestPageRankBudgetExhaustion(t *testing.T) {
	net := randomNet(t, 7, 150)
	res, err := OperatorFor(net).PageRank(PageRankParams{Alpha: 0.9, MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("2 iterations at alpha=0.9 should not converge to 1e-12")
	}
	if res.Iterations != 2 || len(res.Scores) != net.N() {
		t.Fatalf("iterations=%d scores=%d", res.Iterations, len(res.Scores))
	}
}

// TestPageRankValidate pins the parameter contract.
func TestPageRankValidate(t *testing.T) {
	net := randomNet(t, 8, 50)
	for _, bad := range []PageRankParams{
		{Alpha: -0.1}, {Alpha: 1}, {Alpha: 1.5},
		{Alpha: 0.5, Tol: -1}, {Alpha: 0.5, MaxIter: -1},
	} {
		if _, err := OperatorFor(net).PageRank(bad); err == nil {
			t.Errorf("params %+v accepted", bad)
		}
	}
}
