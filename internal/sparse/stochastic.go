package sparse

import (
	"fmt"
	"sync"
)

// Stochastic is a column-stochastic matrix with the dangling columns
// (columns whose sum is zero in the source matrix) tracked explicitly
// rather than materialized as dense 1/n columns. This is the matrix S of
// the paper: S[i,j] = 1/k_j if paper j cites paper i (k_j = #references of
// j), and dangling papers (no references) distribute their mass uniformly.
//
// MulVec computes S·x = M·x + (Σ_{dangling j} x_j) · u where u is the
// uniform vector, exactly matching the paper's definition of S without
// storing n² entries.
//
// A Stochastic comes in two forms. NewColumnStochastic normalizes a
// weighted matrix into a per-entry value array. NewCitationStochastic
// wraps a 0/1 pattern — a citation network's reference lists — with no
// value array at all: every entry of column c is 1/k_c, computed where
// it is read. Both forms give the same bits for a 0/1 matrix, since a
// sum of k ones is exactly k and 1·(1/k) == 1/k.
type Stochastic struct {
	m        *Matrix // m.val is nil in the pattern form
	dangling []int32 // columns with zero out-sum, ascending
	// counts returns the per-row, per-column-window entry counts the
	// degree-run ordering and the tiled layout both read, computed once.
	counts func() []int32
}

func newStochastic(m *Matrix, dangling []int32) *Stochastic {
	s := &Stochastic{m: m, dangling: dangling}
	s.counts = sync.OnceValue(s.windowCounts)
	return s
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
	return newStochastic(norm, dangling), nil
}

// NewCitationStochastic returns the column-stochastic form of the n×n
// 0/1 matrix whose column c holds rows rowIdx[colPtr[c]:colPtr[c+1]]:
// each entry of a column of k entries is 1/k, and empty columns are
// dangling. It wraps the arrays without copying them and stores no
// values. Each column's rows must be strictly ascending and in [0, n),
// as graph.Network's reference lists are by construction; only the
// pointer array's shape is checked here.
func NewCitationStochastic(n int, colPtr, rowIdx []int32) (*Stochastic, error) {
	if n < 0 || len(colPtr) != n+1 || colPtr[0] != 0 || int(colPtr[n]) != len(rowIdx) {
		return nil, fmt.Errorf("sparse: %d column pointers spanning %d rows for a %dx%d citation matrix", len(colPtr), len(rowIdx), n, n)
	}
	var dangling []int32
	for c := 0; c < n; c++ {
		if colPtr[c] == colPtr[c+1] {
			dangling = append(dangling, int32(c))
		}
	}
	return newStochastic(&Matrix{rows: n, cols: n, colPtr: colPtr, rowIdx: rowIdx}, dangling), nil
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

// mulM computes dst = M·x, the product without the dangling share. The
// pattern form multiplies each column's 1/k by x[c] once and adds that
// product down the column: the addend the value form computes per
// entry, so the bits agree.
func (s *Stochastic) mulM(dst, x []float64) {
	m := s.m
	if m.val != nil {
		m.MulVec(dst, x)
		return
	}
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: matrix %dx%d, x %d, dst %d",
			m.rows, m.cols, len(x), len(dst)))
	}
	clear(dst)
	for c := 0; c < m.cols; c++ {
		lo, hi := m.colPtr[c], m.colPtr[c+1]
		if x[c] == 0 || lo == hi {
			continue
		}
		v := 1 / float64(hi-lo) * x[c]
		for _, r := range m.rowIdx[lo:hi] {
			dst[r] += v
		}
	}
}

// MulVec computes dst = S·x with the dangling mass spread uniformly:
// dst = M·x + (dangling mass)/n. dst and x must both have length N and
// must not alias.
func (s *Stochastic) MulVec(dst, x []float64) {
	s.mulM(dst, x)
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
	s.mulM(dst, x)
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
	if s.m.val != nil {
		return s.m.At(row, col)
	}
	if _, ok := s.m.find(row, col); !ok {
		return 0
	}
	return 1 / float64(s.m.colPtr[col+1]-s.m.colPtr[col])
}

// colValue returns the value every entry of column c holds, panicking
// if the value form's column is not uniform (see TiledStochastic).
// Dangling columns read 0.
func (s *Stochastic) colValue(c int) float64 {
	m := s.m
	lo, hi := m.colPtr[c], m.colPtr[c+1]
	if lo == hi {
		return 0
	}
	if m.val == nil {
		return 1 / float64(hi-lo)
	}
	for k := lo + 1; k < hi; k++ {
		if m.val[k] != m.val[lo] {
			panic(fmt.Sprintf("sparse: Tiled column %d is not uniform: entries %v and %v differ", c, m.val[lo], m.val[k]))
		}
	}
	return m.val[lo]
}

// windows returns the number of 64Ki column windows of an n-row layout.
func windows(n int) int {
	return max(1, (n+windowSize-1)/windowSize)
}

// windowCounts returns cnt with cnt[r·w+j] the entries of row r whose
// column is in window j (w = windows(N)).
func (s *Stochastic) windowCounts() []int32 {
	m := s.m
	w := windows(m.rows)
	cnt := make([]int32, m.rows*w)
	for c := 0; c < m.cols; c++ {
		j := c >> WindowBits
		for _, r := range m.rowIdx[m.colPtr[c]:m.colPtr[c+1]] {
			cnt[int(r)*w+j]++
		}
	}
	return cnt
}
