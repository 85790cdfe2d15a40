package baselines

import (
	"fmt"
	"math"

	"attrank/internal/graph"
	"attrank/internal/sparse"
)

// This file implements three further centrality methods from the paper's
// related-work section (§5) — useful both as additional comparison points
// and because two of them are the structural basis of methods in the main
// evaluation (HITS underlies FutureRank, Katz underlies ECM).

// HITS implements Kleinberg's hubs-and-authorities iteration on the
// citation graph [17]. The returned score is the authority vector: a
// paper is a good authority when cited by good hubs (papers whose
// reference lists point at good authorities). Scores are L1-normalized.
type HITS struct {
	Tol     float64
	MaxIter int
}

// Name implements rank.Method.
func (HITS) Name() string { return "HITS" }

// Scores implements rank.Method. The time argument is unused.
func (h HITS) Scores(net *graph.Network, _ int) ([]float64, error) {
	n := net.N()
	if n == 0 {
		return nil, ErrEmptyNetwork
	}
	c, err := net.CitationMatrix()
	if err != nil {
		return nil, err
	}
	auth := sparse.Uniform(n)
	hub := make([]float64, n)
	nextAuth := make([]float64, n)
	tol, maxIter := defaults(h.Tol, h.MaxIter)
	for iter := 0; iter < maxIter; iter++ {
		// hub = Cᵀ·auth (a hub's score sums its references' authority):
		// C[i,j]=1 when j cites i, so hub[j] = Σ_i C[i,j]·auth[i].
		c.MulVecTrans(hub, auth)
		sparse.Normalize(hub)
		// auth = C·hub (an authority sums the hub scores of its citers).
		c.MulVec(nextAuth, hub)
		sparse.Normalize(nextAuth)
		resid := sparse.L1Diff(nextAuth, auth)
		auth, nextAuth = nextAuth, auth
		if resid < tol {
			return auth, nil
		}
	}
	return nil, fmt.Errorf("baselines: hits: %w", ErrNotConverged)
}

// Katz implements plain Katz centrality over the unweighted citation
// matrix: score = Σ_{k≥1} Alpha^{k−1}·C^k·1, crediting citation chains
// with geometric damping. This is ECM with γ=1 (no citation aging) and is
// included to isolate what the age weighting of RAM/ECM contributes.
type Katz struct {
	Alpha   float64 // chain damping in (0, 1)
	Tol     float64
	MaxIter int
}

// Name implements rank.Method.
func (Katz) Name() string { return "KATZ" }

// Validate checks the damping factor.
func (k Katz) Validate() error {
	if k.Alpha <= 0 || k.Alpha >= 1 {
		return fmt.Errorf("baselines: katz alpha %v out of (0,1)", k.Alpha)
	}
	return nil
}

// Scores implements rank.Method. The time argument is unused.
func (k Katz) Scores(net *graph.Network, _ int) ([]float64, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	// Katz over the raw matrix equals ECM with γ=1 evaluated at any
	// "now"; delegate to keep a single series implementation.
	return ECM{Alpha: k.Alpha, Gamma: 1, Tol: k.Tol, MaxIter: k.MaxIter}.Scores(net, net.MaxYear())
}

// TimeAwarePageRank modifies PageRank's adjacency instead of its jump
// vector, the other main family of time-aware methods in §5 (Yu et al.
// 2005; Dunaiski & Visser 2012): each citation edge is weighted by
// exp(−(t_citing − t_cited)/Tau), so the random researcher avoids
// references to much older papers. Dangling mass and random jumps stay
// uniform as in PageRank.
type TimeAwarePageRank struct {
	Alpha   float64 // damping in [0, 1)
	Tau     float64 // edge age constant in years, > 0
	Tol     float64
	MaxIter int
}

// Name implements rank.Method.
func (TimeAwarePageRank) Name() string { return "TPR" }

// Validate checks parameter ranges.
func (t TimeAwarePageRank) Validate() error {
	if t.Alpha < 0 || t.Alpha >= 1 {
		return fmt.Errorf("baselines: time-aware pagerank alpha %v out of [0,1)", t.Alpha)
	}
	if t.Tau <= 0 {
		return fmt.Errorf("baselines: time-aware pagerank tau %v must be positive", t.Tau)
	}
	return nil
}

// Scores implements rank.Method. The time argument is unused (edge ages
// are publication-gap based, not anchored at now).
func (t TimeAwarePageRank) Scores(net *graph.Network, _ int) ([]float64, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := net.N()
	if n == 0 {
		return nil, ErrEmptyNetwork
	}
	m, err := net.WeightedMatrix(func(citing, cited int32) float64 {
		gap := max(net.Year(citing)-net.Year(cited), 0)
		return math.Exp(-float64(gap) / t.Tau)
	})
	if err != nil {
		return nil, fmt.Errorf("baselines: time-aware pagerank: %w", err)
	}
	s, err := sparse.NewColumnStochastic(m)
	if err != nil {
		return nil, fmt.Errorf("baselines: time-aware pagerank: %w", err)
	}
	x := sparse.Uniform(n)
	next := make([]float64, n)
	jump := (1 - t.Alpha) / float64(n)
	tol, maxIter := defaults(t.Tol, t.MaxIter)
	for iter := 0; iter < maxIter; iter++ {
		s.MulVec(next, x)
		for i := range next {
			next[i] = t.Alpha*next[i] + jump
		}
		resid := sparse.L1Diff(next, x)
		x, next = next, x
		if resid < tol {
			return x, nil
		}
	}
	return nil, fmt.Errorf("baselines: time-aware pagerank: %w", ErrNotConverged)
}
