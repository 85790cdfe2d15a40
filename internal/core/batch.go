package core

import (
	"fmt"
	"sort"
	"time"

	"attrank/internal/sparse"
)

// Lanes is the most cells RankBatch carries through one pass over the
// matrix: the width of the tiled lane step (sparse.Lanes).
const Lanes = sparse.Lanes

// laneKey is what the cells of one lane group share: the attention and
// recency vectors every lane reads, and the stopping rule and
// concurrency cap one loop applies to all of them.
type laneKey struct {
	years   int
	w       float64
	tol     float64
	maxIter int
	parts   int
}

// LaneGroups returns the lane groups RankBatch forms from ps, as indices
// into ps in the order RankBatch ranks them. The valid cold-start cells
// with α ≠ 0 are keyed by what one lane loop shares — (y, w, tol,
// maxIter, Workers) — in first-seen order; each key's cells are sorted
// by descending α, ties in input order, and cut into runs of at most
// Lanes. Every cell in no group is ranked alone. A caller that spreads
// one batch over several RankBatch calls, each given whole groups,
// keeps every lane the single call would have formed.
func LaneGroups(ps []Params) [][]int {
	byKey := map[laneKey][]int{}
	var keys []laneKey // first-seen order
	for i, p := range ps {
		if p.Alpha == 0 || p.Start != nil || p.Validate() != nil {
			continue
		}
		k := laneKey{years: p.AttentionYears, w: p.W, tol: p.tol(), maxIter: p.maxIter(), parts: stepParts(p.Workers)}
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	var groups [][]int
	for _, k := range keys {
		cells := byKey[k]
		sort.SliceStable(cells, func(a, b int) bool { return ps[cells[a]].Alpha > ps[cells[b]].Alpha })
		for len(cells) > 0 {
			g := min(Lanes, len(cells))
			groups = append(groups, cells[:g:g])
			cells = cells[g:]
		}
	}
	return groups
}

// RankBatch computes AttRank scores for a slice of parameterizations —
// the cells of a parameter sweep. Every cell is bit-identical to
// op.Rank(now, ps[i]): scores, residuals, iteration counts and
// convergence flags, for any mix of α/β/γ/y/w, warm starts and
// tolerances; a cell's Workers only caps its concurrency.
//
// Each lane group (LaneGroups) is ranked through the tiled lane step
// (sparse.TiledStochastic.StepLanes), which carries up to four iterates
// through one pass over the matrix; each lane stops at the iteration
// where its own cell converges and is frozen there while the rest of
// its group iterates on. Every other cell — α = 0 or a warm start —
// runs the single-vector path Rank runs.
//
// Cells that share (y, w) share one attention and one recency vector.
// A lane group's score vectors are one Lanes·n block, padding lanes
// included, which holds the interleaved iterate while the group runs;
// the lane groups share one Lanes·n premultiplied buffer and the
// single-vector cells one pair of iteration buffers. So besides those
// shared buffers a cell allocates only its Scores, and a lane group of
// g < Lanes cells n·(Lanes − g) more.
//
// Results and errors are parallel to ps: results[i] is nil exactly when
// errs[i] is non-nil, and one invalid cell does not fail its neighbors.
// Unlike Rank, Results of the same batch share attention/recency backing
// arrays when their (y, w) agree, and a lane group's Scores share one
// backing array — treat those vectors as read-only. A lane cell's
// Duration is its group's wall time until that cell stopped.
func (op *Operator) RankBatch(now int, ps []Params) ([]*Result, []error) {
	results := make([]*Result, len(ps))
	errs := make([]error, len(ps))
	n := op.net.N()
	groups := LaneGroups(ps)
	inLane := make([]bool, len(ps))
	for _, g := range groups {
		for _, i := range g {
			inLane[i] = true
		}
	}
	att := map[attKey][]float64{}
	rec := map[recKey][]float64{}
	var x, next []float64
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			errs[i] = err
			continue
		}
		if n == 0 {
			errs[i] = ErrEmptyNetwork
			continue
		}
		started := time.Now()
		ak := attKey{now: now, years: p.AttentionYears}
		if att[ak] == nil {
			att[ak] = op.attention(now, p.AttentionYears)
		}
		rk := recKey{now: now, w: p.W}
		if rec[rk] == nil {
			rec[rk] = op.recency(now, p.W)
		}
		res := &Result{Attention: att[ak], Recency: rec[rk]}
		if inLane[i] {
			results[i] = res // ranked with its group below
			continue
		}
		if p.Alpha != 0 && x == nil {
			x, next = make([]float64, n), make([]float64, n)
		}
		if err := op.rankInto(res, now, p, x, next, started); err != nil {
			errs[i] = err
			continue
		}
		results[i] = res
	}
	if n == 0 {
		return results, errs
	}

	var y [][Lanes]float64 // the premultiplied buffer every lane group reuses
	for _, g := range groups {
		if y == nil {
			y = make([][Lanes]float64, n)
		}
		if err := op.rankLanes(now, ps, g, results, y); err != nil {
			for _, i := range g {
				results[i], errs[i] = nil, err
			}
		}
	}
	return results, errs
}

// rankLanes ranks one lane group — one to Lanes validated cold-start
// cells of ps, indexed by cells in descending α, that share a laneKey —
// into res[cells[l]], whose Attention and Recency are set, and records
// each cell's telemetry as rankInto does. Lanes past len(cells) are
// padding: frozen from the start at 0. y is a caller-owned n-entry
// block for StepLanes' premultiplied iterates. The group's scores are
// allocated as one Lanes·n block, which holds the interleaved iterate
// until the last lane stops; it is then copied to y and rewritten from
// there as the scores, lane by lane, in original id order.
func (op *Operator) rankLanes(now int, ps []Params, cells []int, res []*Result, y [][Lanes]float64) error {
	started := time.Now()
	n := op.net.N()
	p := ps[cells[0]]
	ti, err := op.acquireTiled()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	perm := op.perm
	attP := op.permutedAttention(now, p.AttentionYears)
	recP := op.permutedRecency(now, p.W)
	var ls sparse.LaneSet
	var start [Lanes]float64
	for l, i := range cells {
		ls.Alpha[l], ls.Beta[l], ls.Gamma[l] = ps[i].Alpha, ps[i].Beta, ps[i].Gamma
		ls.Live[l] = true
		start[l] = 1 / float64(n) // rankInto's cold start, uniform in any order
	}
	scores := make([]float64, Lanes*n)
	for i := 0; i < n; i++ {
		copy(scores[Lanes*i:], start[:])
	}
	var took [Lanes]time.Duration // each lane's wall time until it stopped
	tol, live := p.tol(), len(cells)
	parts := stepParts(p.Workers)
	for iter := 1; iter <= p.maxIter() && live > 0; iter++ {
		resid := ti.StepLanes(scores, y, attP, recP, &ls, parts)
		for l, i := range cells {
			if !ls.Live[l] {
				continue
			}
			r := res[i]
			r.Residuals = append(r.Residuals, resid[l])
			mIterationResidual.Observe(resid[l])
			r.Iterations = iter
			if resid[l] < tol {
				r.Converged = true
				ls.Live[l] = false
				took[l] = time.Since(started)
				live--
			}
		}
	}
	for l := range cells {
		if ls.Live[l] { // stopped by maxIter
			took[l] = time.Since(started)
		}
	}
	for i := range y {
		copy(y[i][:], scores[Lanes*i:])
	}
	for l, i := range cells {
		s := scores[l*n : (l+1)*n : (l+1)*n]
		for j, pj := range perm {
			s[j] = y[pj][l]
		}
		r := res[i]
		r.Scores = s
		r.Duration = took[l]
		op.observeRank(r, ps[i])
	}
	return nil
}
