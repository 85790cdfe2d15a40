// Package core implements AttRank (Kanellos et al., "Ranking Papers by
// their Short-Term Scientific Impact"), the paper's primary contribution.
//
// AttRank scores satisfy the recurrence (Eq. 4 of the paper)
//
//	AR(p) = α · Σ_j S[p,j]·AR(j) + β · A(p) + γ · T(p)
//
// where S is the column-stochastic citation matrix, A is the attention
// vector (each paper's share of the citations made in the last y years,
// Eq. 2), and T is the recency vector (normalized exp(w·age), Eq. 3).
// With α+β+γ = 1 the iteration is a power method on a stochastic,
// irreducible, aperiodic matrix and converges (Theorem 1).
package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"attrank/internal/graph"
	"attrank/internal/sparse"
)

// Default iteration controls, matching the paper's experimental setup
// (ε ≤ 1e−12, convergence well under 30 iterations for α ≤ 0.5).
const (
	DefaultTol     = 1e-12
	DefaultMaxIter = 200
)

// Params configures AttRank.
type Params struct {
	// Alpha is the probability of following a reference (PageRank-style
	// impact flow).
	Alpha float64
	// Beta is the probability of jumping to a paper proportionally to its
	// recent attention. Beta = 0 is the NO-ATT variant; Beta = 1 is
	// ATT-ONLY.
	Beta float64
	// Gamma is the probability of jumping to a paper preferring recent
	// publications. Alpha + Beta + Gamma must equal 1.
	Gamma float64
	// AttentionYears is y of Eq. 2: attention counts citations made in
	// the last y years, i.e. by papers published in [now−y+1, now].
	AttentionYears int
	// W is the (negative) exponent of the recency score Eq. 3. W = 0
	// disables age decay (all papers equally "recent").
	W float64
	// Tol is the L1 convergence threshold ε; DefaultTol if zero.
	Tol float64
	// MaxIter bounds the power iteration; DefaultMaxIter if zero.
	MaxIter int
	// Start optionally warm-starts the iteration from a previous score
	// vector instead of the uniform one — useful when re-ranking a
	// network that grew slightly (e.g. a yearly update): convergence is
	// reached in fewer iterations. Must have one entry per paper and
	// non-negative mass; it is normalized before use.
	Start []float64
	// Workers caps the concurrency of the tiled power-method kernel: 0
	// or 1 steps inline on the caller, N > 1 uses at most N tasks of the
	// compiled operator's persistent pool, and a negative value one per
	// GOMAXPROCS. The Result — scores, residuals, iterations,
	// convergence — does not depend on it. The scores are bit-identical
	// to the serial CSC power iteration's, iterate for iterate; only the
	// residual, a per-tile tree-reduction, may differ from that
	// sequential sum in its last ulps. attrank-serve defaults its
	// re-ranks to one worker per core (see its -workers flag).
	Workers int
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	if p.Alpha < 0 || p.Beta < 0 || p.Gamma < 0 {
		return fmt.Errorf("core: negative coefficient (α=%v β=%v γ=%v)", p.Alpha, p.Beta, p.Gamma)
	}
	if s := p.Alpha + p.Beta + p.Gamma; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("core: α+β+γ = %v, must equal 1", s)
	}
	if p.AttentionYears < 0 {
		return fmt.Errorf("core: negative attention window y=%d", p.AttentionYears)
	}
	if p.Beta > 0 && p.AttentionYears == 0 {
		return fmt.Errorf("core: β=%v requires an attention window y ≥ 1", p.Beta)
	}
	if p.W > 0 {
		return fmt.Errorf("core: w must be ≤ 0, got %v", p.W)
	}
	if p.Tol < 0 {
		return fmt.Errorf("core: negative tolerance %v", p.Tol)
	}
	if p.MaxIter < 0 {
		return fmt.Errorf("core: negative MaxIter %d", p.MaxIter)
	}
	return nil
}

func (p Params) tol() float64 {
	if p.Tol == 0 {
		return DefaultTol
	}
	return p.Tol
}

func (p Params) maxIter() int {
	if p.MaxIter == 0 {
		return DefaultMaxIter
	}
	return p.MaxIter
}

// NoAtt returns the NO-ATT variant of p: the attention mass is folded
// into the recency jump (β=0, γ=1−α), the configuration the paper uses to
// ablate the attention mechanism.
func (p Params) NoAtt() Params {
	p.Gamma += p.Beta
	p.Beta = 0
	return p
}

// AttOnly returns the ATT-ONLY variant of p (α=0, β=1, γ=0): ranking by
// attention alone.
func (p Params) AttOnly() Params {
	p.Alpha, p.Beta, p.Gamma = 0, 1, 0
	return p
}

// Result carries the converged scores and convergence diagnostics.
type Result struct {
	// Scores is the AttRank probability vector (sums to 1).
	Scores []float64
	// Iterations is the number of power-method steps performed.
	Iterations int
	// Converged reports whether the L1 residual dropped below Tol within
	// MaxIter iterations.
	Converged bool
	// Residuals holds the L1 residual after each iteration, for the
	// convergence-rate experiment of §4.4.
	Residuals []float64
	// Attention and Recency are the A and T vectors used, exposed for
	// diagnostics and the examples.
	Attention []float64
	Recency   []float64
	// Duration is the wall-clock time Rank spent, for operational
	// monitoring (e.g. the live-ingestion /v1/epoch endpoint).
	Duration time.Duration

	// dangling memoises Explain's dangling mass for one network, so a
	// read path explaining many papers of one epoch scans the corpus
	// once. Set lazily; a Result must not be copied after first use.
	dangling atomic.Pointer[danglingMass]
}

// ErrEmptyNetwork is returned when ranking a network without papers.
var ErrEmptyNetwork = errors.New("core: empty network")

// Rank computes AttRank scores on the network's state at time now
// (normally net.MaxYear() when net is already the current state C(tN)).
// It delegates to the compiled operator for the network (see Operator and
// OperatorFor), so repeated ranks of the same *graph.Network — a live
// re-rank loop, a parameter sweep — reuse the tiled layout and the worker
// pool instead of rebuilding them per call.
func Rank(net *graph.Network, now int, p Params) (*Result, error) {
	return OperatorFor(net).Rank(now, p)
}

// AttentionVector computes A of Eq. 2 at time now: A(p) is the fraction of
// all citations made during the last y years (by papers published in
// (now−y, now]) that p received. If no citations fall in the window the
// vector is uniform, keeping the AttRank matrix stochastic.
func AttentionVector(net *graph.Network, now, y int) []float64 {
	n := net.N()
	att := make([]float64, n)
	if n == 0 {
		return att
	}
	if y <= 0 {
		return sparse.Uniform(n)
	}
	total := 0.0
	for i, c := range net.WindowCitations(now-y+1, now) {
		att[i] = float64(c)
		total += att[i]
	}
	if total == 0 {
		return sparse.Uniform(n)
	}
	inv := 1 / total
	for i := range att {
		att[i] *= inv
	}
	return att
}

// RecencyVector computes T of Eq. 3 at time now: T(p) ∝ exp(w·(now−t_p)),
// normalized to sum to one. Papers "from the future" (t_p > now) are
// clamped to age 0. With w = 0 this is the uniform vector, recovering
// PageRank's random jump.
func RecencyVector(net *graph.Network, now int, w float64) []float64 {
	n := net.N()
	rec := make([]float64, n)
	if n == 0 {
		return rec
	}
	for i := int32(0); int(i) < n; i++ {
		age := now - net.Year(i)
		if age < 0 {
			age = 0
		}
		rec[i] = math.Exp(w * float64(age))
	}
	sparse.Normalize(rec)
	return rec
}
