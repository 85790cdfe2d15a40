package sparse

import "fmt"

// Stochastic is a column-stochastic matrix with the dangling columns
// (columns whose sum is zero in the source matrix) tracked explicitly
// rather than materialized as dense 1/n columns. This is the matrix S of
// the paper: S[i,j] = 1/k_j if paper j cites paper i (k_j = #references of
// j), and dangling papers (no references) distribute their mass uniformly.
//
// MulVec computes S·x = M·x + (Σ_{dangling j} x_j) · u where u is the
// uniform vector, exactly matching the paper's definition of S without
// storing n² entries.
type Stochastic struct {
	m        *Matrix
	dangling []int32 // columns with zero out-sum, ascending
}

// NewColumnStochastic normalizes each column of m to sum to one and
// records zero columns as dangling. The input matrix must be square and
// must not contain negative entries.
func NewColumnStochastic(m *Matrix) (*Stochastic, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("sparse: stochastic matrix must be square, got %dx%d", m.rows, m.cols)
	}
	val := make([]float64, len(m.val))
	copy(val, m.val)
	norm := &Matrix{rows: m.rows, cols: m.cols, colPtr: m.colPtr, rowIdx: m.rowIdx, val: val}
	var dangling []int32
	for c := 0; c < m.cols; c++ {
		lo, hi := m.colPtr[c], m.colPtr[c+1]
		sum := 0.0
		for k := lo; k < hi; k++ {
			if m.val[k] < 0 {
				return nil, fmt.Errorf("sparse: negative entry %v in column %d", m.val[k], c)
			}
			sum += m.val[k]
		}
		if sum == 0 {
			dangling = append(dangling, int32(c))
			continue
		}
		inv := 1 / sum
		for k := lo; k < hi; k++ {
			norm.val[k] = m.val[k] * inv
		}
	}
	return &Stochastic{m: norm, dangling: dangling}, nil
}

// N returns the dimension of the (square) matrix.
func (s *Stochastic) N() int { return s.m.rows }

// Dangling reports whether column c is dangling.
func (s *Stochastic) Dangling(c int) bool {
	lo, hi := 0, len(s.dangling)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.dangling[mid] < int32(c):
			lo = mid + 1
		case s.dangling[mid] > int32(c):
			hi = mid
		default:
			return true
		}
	}
	return false
}

// DanglingMass returns Σ x[j] over dangling columns j.
func (s *Stochastic) DanglingMass(x []float64) float64 {
	mass := 0.0
	for _, c := range s.dangling {
		mass += x[c]
	}
	return mass
}

// MulVec computes dst = S·x with the dangling mass spread uniformly:
// dst = M·x + (dangling mass)/n. dst and x must both have length N and
// must not alias.
func (s *Stochastic) MulVec(dst, x []float64) {
	s.m.MulVec(dst, x)
	if len(s.dangling) == 0 {
		return
	}
	share := s.DanglingMass(x) / float64(s.m.rows)
	for i := range dst {
		dst[i] += share
	}
}

// MulVecDanglingTo computes dst = M·x and adds the dangling mass to the
// provided redistribution vector r (dst += mass · r) instead of the
// uniform vector. r must sum to one for the result to remain stochastic.
// Used by the dangling-policy ablation.
func (s *Stochastic) MulVecDanglingTo(dst, x, r []float64) {
	s.m.MulVec(dst, x)
	if len(s.dangling) == 0 {
		return
	}
	mass := s.DanglingMass(x)
	for i := range dst {
		dst[i] += mass * r[i]
	}
}

// At returns the normalized entry (row, col); dangling columns read as
// 1/n everywhere, matching the paper's definition of S.
func (s *Stochastic) At(row, col int) float64 {
	if s.Dangling(col) {
		return 1 / float64(s.m.rows)
	}
	return s.m.At(row, col)
}
