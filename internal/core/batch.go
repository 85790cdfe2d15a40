package core

import "time"

// RankBatch computes AttRank scores for a slice of parameterizations —
// the cells of a parameter sweep — one cell at a time through the same
// single-vector path as Rank. Every cell is bit-identical to
// op.Rank(now, ps[i]): scores, residuals, iteration counts and
// convergence flags, for any mix of α/β/γ/y/w, warm starts, tolerances
// and Workers settings.
//
// What the batch saves over calling Rank per cell is allocation, not
// matrix traffic: cells that share (y, w) share one attention and one
// recency vector, and every iterating cell runs on the same pair of
// iteration buffers, so each cell allocates only its Scores.
//
// Results and errors are parallel to ps: results[i] is nil exactly when
// errs[i] is non-nil, and one invalid cell does not fail its neighbors.
// Unlike Rank, Results of the same batch share attention/recency backing
// arrays when their (y, w) agree — treat those vectors as read-only.
func (op *Operator) RankBatch(now int, ps []Params) ([]*Result, []error) {
	results := make([]*Result, len(ps))
	errs := make([]error, len(ps))
	n := op.net.N()
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
		if p.Alpha != 0 && x == nil {
			x, next = make([]float64, n), make([]float64, n)
		}
		res := &Result{Attention: att[ak], Recency: rec[rk]}
		if err := op.rankInto(res, now, p, x, next, started); err != nil {
			errs[i] = err
			continue
		}
		results[i] = res
	}
	return results, errs
}
