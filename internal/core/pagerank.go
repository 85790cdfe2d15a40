package core

import (
	"fmt"
	"runtime"
	"time"

	"attrank/internal/sparse"
)

// DefaultPageRankMaxIter bounds the PageRank power iteration. PageRank
// converges slower than AttRank at equal damping (no attention/recency
// mass shortens the spectral gap), so it gets the baselines package's
// budget rather than AttRank's.
const DefaultPageRankMaxIter = 500

// PageRankParams configures Operator.PageRank. The zero value of Tol and
// MaxIter selects DefaultTol and DefaultPageRankMaxIter; Workers selects
// the kernel exactly as Params.Workers does (0 = serial CSC reference,
// nonzero = tiled kernel on at most that many workers, negative =
// GOMAXPROCS).
type PageRankParams struct {
	// Alpha is the damping factor, in [0, 1).
	Alpha   float64
	Tol     float64
	MaxIter int
	Workers int
}

// Validate checks the damping factor and iteration controls.
func (p PageRankParams) Validate() error {
	if p.Alpha < 0 || p.Alpha >= 1 {
		return fmt.Errorf("core: pagerank alpha %v out of [0,1)", p.Alpha)
	}
	if p.Tol < 0 {
		return fmt.Errorf("core: negative tolerance %v", p.Tol)
	}
	if p.MaxIter < 0 {
		return fmt.Errorf("core: negative MaxIter %d", p.MaxIter)
	}
	return nil
}

func (p PageRankParams) tol() float64 {
	if p.Tol == 0 {
		return DefaultTol
	}
	return p.Tol
}

func (p PageRankParams) maxIter() int {
	if p.MaxIter == 0 {
		return DefaultPageRankMaxIter
	}
	return p.MaxIter
}

// PageRank computes classic random-walk-with-uniform-jumps scores (Eq. 1
// of the paper) on the compiled operator, reusing the CSC matrix, the
// tiled CSR layout, the relabeling and the worker pool that AttRank
// ranks already paid for. The recurrence is the α+β+γ=1 AttRank limit
// with the whole jump mass uniform:
//
//	PR = α·S·PR + (1−α)/n
//
// Serial (Workers == 0) iterates are bit-identical to
// baselines.PageRank: the combine is the same two-operation update
// (α·(Sx)[i] + jump) on the same column-stochastic MulVec. The parallel
// path feeds the tiled kernel β=0, γ=1 with a constant jump vector —
// 0·A contributes exact zeros and 1·T multiplies exactly, so its
// iterates are bit-identical to the serial ones (the tiled kernel
// accumulates in canonical column order; see sparse.TiledStochastic).
// Note the jump vector holds (1−α)/n per entry, NOT a normalized
// uniform vector scaled by (1−α): (1−α)·(1/n) and (1−α)/n can differ
// in the last ulp, and bit-equality with the baselines reference is the
// contract here.
//
// Like Rank, a budget exhaustion is reported via Result.Converged =
// false rather than an error, so callers can still use the final
// iterate. On the tiled path the residual is an L1 tree-reduction over
// per-tile partials, so — exactly as for AttRank — the whole Result is
// the same for every nonzero Workers. It may differ from the serial
// reference's only in the residual's last ulps, and through them in
// the iteration the stopping test picks.
func (op *Operator) PageRank(p PageRankParams) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := op.net.N()
	if n == 0 {
		return nil, ErrEmptyNetwork
	}
	started := time.Now()

	jump := (1 - p.Alpha) / float64(n)
	jumpVec := make([]float64, n)
	for i := range jumpVec {
		jumpVec[i] = jump
	}

	res := &Result{}
	x := sparse.Uniform(n)
	next := make([]float64, n)
	tol := p.tol()

	if p.Workers == 0 {
		s, err := op.stochastic()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		for iter := 1; iter <= p.maxIter(); iter++ {
			s.MulVec(next, x)
			for i := range next {
				next[i] = p.Alpha*next[i] + jump
			}
			resid := sparse.L1Diff(next, x)
			res.Residuals = append(res.Residuals, resid)
			x, next = next, x
			res.Iterations = iter
			if resid < tol {
				res.Converged = true
				break
			}
		}
	} else {
		ti, release, err := op.acquireTiled()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		perm := op.perm
		// A constant vector is its own permutation, so the jump vector
		// crosses the relabeling boundary unchanged; the uniform start
		// does too. Only the scores cross back.
		xp := next
		copy(xp, x)
		nextP := make([]float64, n)
		parts := p.Workers
		if parts < 0 {
			parts = runtime.GOMAXPROCS(0)
		}
		for iter := 1; iter <= p.maxIter(); iter++ {
			resid := ti.Step(nextP, xp, jumpVec, jumpVec, p.Alpha, 0, 1, parts)
			res.Residuals = append(res.Residuals, resid)
			xp, nextP = nextP, xp
			res.Iterations = iter
			if resid < tol {
				res.Converged = true
				break
			}
		}
		release()
		for i := range x {
			x[i] = xp[perm[i]]
		}
	}
	res.Scores = x
	res.Duration = time.Since(started)
	return res, nil
}
