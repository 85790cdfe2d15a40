package core

import (
	"fmt"
	"time"

	"attrank/internal/sparse"
)

// DefaultPageRankMaxIter bounds the PageRank power iteration. PageRank
// converges slower than AttRank at equal damping (no attention/recency
// mass shortens the spectral gap), so it gets the baselines package's
// budget rather than AttRank's.
const DefaultPageRankMaxIter = 500

// PageRankParams configures Operator.PageRank. The zero value of Tol and
// MaxIter selects DefaultTol and DefaultPageRankMaxIter; Workers caps the
// tiled kernel's concurrency exactly as Params.Workers does (0 or 1 =
// inline on the caller, N > 1 = at most N pool tasks, negative =
// GOMAXPROCS) and does not change the Result.
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
// of the paper) on the compiled operator, reusing the tiled CSR layout,
// the relabeling and the worker pool that AttRank ranks already paid
// for. The recurrence is the α+β+γ=1 AttRank limit with the whole jump
// mass uniform:
//
//	PR = α·S·PR + (1−α)/n
//
// The tiled kernel is fed β=0, γ=1 with a constant jump vector — 0·A
// contributes exact zeros and 1·T multiplies exactly — so every iterate
// is bit-identical to baselines.PageRank's two-operation update
// (α·(Sx)[i] + jump) on the column-stochastic MulVec (the tiled kernel
// accumulates in canonical column order; see sparse.TiledStochastic).
// Note the jump vector holds (1−α)/n per entry, NOT a normalized
// uniform vector scaled by (1−α): (1−α)·(1/n) and (1−α)/n can differ
// in the last ulp, and bit-equality with the baselines reference is the
// contract here.
//
// Like Rank, a budget exhaustion is reported via Result.Converged =
// false rather than an error, so callers can still use the final
// iterate. The residual is an L1 tree-reduction over per-tile partials,
// so — exactly as for AttRank — the whole Result is the same for every
// Workers. It may differ from the baselines reference's sequential
// residual only in its last ulps, and through them in the iteration the
// stopping test picks.
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

	ti, err := op.acquireTiled()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// A constant vector is its own permutation, so the jump vector and
	// the uniform start cross the relabeling boundary unchanged. Only the
	// scores cross back.
	res := &Result{}
	x := sparse.Uniform(n)
	next := make([]float64, n)
	tol, parts := p.tol(), stepParts(p.Workers)
	for iter := 1; iter <= p.maxIter(); iter++ {
		resid := ti.Step(next, x, jumpVec, jumpVec, p.Alpha, 0, 1, parts)
		res.Residuals = append(res.Residuals, resid)
		x, next = next, x
		res.Iterations = iter
		if resid < tol {
			res.Converged = true
			break
		}
	}
	res.Scores = next // the spare iterate buffer; every entry is overwritten
	for i, s := range op.perm {
		res.Scores[i] = x[s]
	}
	res.Duration = time.Since(started)
	return res, nil
}
