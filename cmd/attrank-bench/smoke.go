package main

import (
	"fmt"
	"math"

	"attrank/internal/core"
	"attrank/internal/sparse"
	"attrank/internal/synth"
)

// runSmoke is the bit-equality gate verify.sh ends with: on a seeded
// synthetic graph, the production tiled kernel under its degree-run
// relabeling, run across the pool, must reproduce the serial CSC
// reference (three sweeps) through the same power iterations, every
// score of every iteration compared bitwise, and return the same
// residual bits on one worker as on the whole pool. It then checks the operator's Rank on
// every core against the same reference loop, restarted from the
// uniform vector and run for as many iterations as Rank took, and its
// Rank on one worker against Rank on every core, residuals included.
// Any mismatch is an error, which main turns into a non-zero exit.
func runSmoke(papers int, profile string) error {
	prof, err := synth.ProfileByName(profile)
	if err != nil {
		return err
	}
	prof = prof.Scale(float64(papers) / float64(prof.Papers))
	net, err := synth.Generate(prof)
	if err != nil {
		return err
	}
	s, err := net.StochasticMatrix()
	if err != nil {
		return err
	}
	n := net.N()
	now := net.MaxYear()
	const alpha, beta, gamma = 0.5, 0.3, 0.2
	att := core.AttentionVector(net, now, 3)
	rec := core.RecencyVector(net, now, -0.16)

	pool := sparse.NewPool(0)
	defer pool.Close()
	perm := s.DegreeOrder(nil)
	tiled := s.Tiled(pool, perm)
	permute := func(dst, src []float64) {
		for i, p := range perm {
			dst[p] = src[i]
		}
	}
	attP := make([]float64, n)
	recP := make([]float64, n)
	permute(attP, att)
	permute(recP, rec)

	x := sparse.Uniform(n)
	want := make([]float64, n)
	xp := make([]float64, n)
	nextP := make([]float64, n)
	inline := make([]float64, n)
	permute(xp, x)
	const iters = 25
	// reference is one serial CSC iteration: the ground truth every
	// kernel reproduces.
	reference := func(dst, src []float64) {
		s.MulVec(dst, src)
		for i := range dst {
			dst[i] = alpha*dst[i] + beta*att[i] + gamma*rec[i]
		}
	}
	for it := 0; it < iters; it++ {
		reference(want, x)
		// Tiled kernel in relabeled space, on one worker and on the
		// whole pool; compare through the permutation.
		r1 := tiled.Step(inline, xp, attP, recP, alpha, beta, gamma, 1)
		rp := tiled.Step(nextP, xp, attP, recP, alpha, beta, gamma, pool.Size())
		if math.Float64bits(r1) != math.Float64bits(rp) {
			return fmt.Errorf("smoke: iter %d: tiled residual %v on 1 worker, %v on %d", it, r1, rp, pool.Size())
		}
		for i := range want {
			if nextP[perm[i]] != want[i] {
				return fmt.Errorf("smoke: iter %d: tiled score[%d] = %v, serial %v (not bit-identical)",
					it, i, nextP[perm[i]], want[i])
			}
		}
		x, want = want, x
		xp, nextP = nextP, xp
	}

	// The operator boundary: Rank on every core vs the reference loop,
	// scores in original paper order.
	op := core.Compile(net)
	defer op.Close()
	p := core.Params{Alpha: alpha, Beta: beta, Gamma: gamma, AttentionYears: 3, W: -0.16, Workers: -1}
	par, err := op.Rank(now, p)
	if err != nil {
		return err
	}
	p.Workers = 1
	one, err := op.Rank(now, p)
	if err != nil {
		return err
	}
	if len(one.Residuals) != len(par.Residuals) {
		return fmt.Errorf("smoke: rank %d residuals on 1 worker, %d on every core", len(one.Residuals), len(par.Residuals))
	}
	for i, r := range one.Residuals {
		if math.Float64bits(r) != math.Float64bits(par.Residuals[i]) {
			return fmt.Errorf("smoke: rank residual %d = %v on 1 worker, %v on every core", i, r, par.Residuals[i])
		}
	}
	sparse.Fill(x, 1/float64(n))
	for it := 0; it < par.Iterations; it++ {
		reference(want, x)
		x, want = want, x
	}
	for i := range x {
		if par.Scores[i] != x[i] {
			return fmt.Errorf("smoke: rank score[%d] = %v, serial reference %v after %d iterations (not bit-identical)",
				i, par.Scores[i], x[i], par.Iterations)
		}
	}
	fmt.Printf("smoke: OK — %d iterations × %d papers bit-identical across serial and tiled kernels, tiled residuals independent of workers; Rank == serial reference (%d iters)\n",
		iters, n, par.Iterations)
	return nil
}
