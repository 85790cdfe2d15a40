// Package sparse provides the minimal sparse linear algebra needed by the
// ranking methods in this repository: compressed sparse column (CSC)
// matrices, column-stochastic normalization with explicit dangling-column
// bookkeeping, sparse matrix–vector products, and a handful of dense
// vector helpers.
//
// All ranking methods in the paper iterate x ← M·x for a column-stochastic
// M derived from the citation matrix, so the CSC layout (fast access to a
// column = the references of one citing paper) is the natural choice.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Matrix is an immutable sparse matrix in compressed sparse column form.
// Entry (r, c) carries the weight of the edge c → r; for a citation matrix
// column c lists the papers referenced by paper c.
type Matrix struct {
	rows, cols int
	colPtr     []int32   // len cols+1; column c occupies [colPtr[c], colPtr[c+1])
	rowIdx     []int32   // row index of each nonzero, strictly ascending per column
	val        []float64 // value of each nonzero
}

// FromCSC wraps compressed sparse column arrays as a Matrix without
// copying them: column c holds rows rowIdx[colPtr[c]:colPtr[c+1]] with
// values val[colPtr[c]:colPtr[c+1]]. The caller must not modify the
// arrays afterwards. It returns an error if colPtr is not a
// non-decreasing pointer array of length cols+1 from 0 to len(rowIdx)
// == len(val), if a row is out of bounds or not strictly above the
// previous row of its column (so no duplicates), or if a value is not
// finite.
func FromCSC(rows, cols int, colPtr, rowIdx []int32, val []float64) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	if len(colPtr) != cols+1 {
		return nil, fmt.Errorf("sparse: %d column pointers for %d columns", len(colPtr), cols)
	}
	if len(rowIdx) != len(val) {
		return nil, fmt.Errorf("sparse: %d row indices for %d values", len(rowIdx), len(val))
	}
	if colPtr[0] != 0 || int(colPtr[cols]) != len(rowIdx) {
		return nil, fmt.Errorf("sparse: column pointers span [%d, %d), want [0, %d)", colPtr[0], colPtr[cols], len(rowIdx))
	}
	for c := 0; c < cols; c++ {
		lo, hi := colPtr[c], colPtr[c+1]
		if hi < lo || int(hi) > len(rowIdx) {
			return nil, fmt.Errorf("sparse: column pointers decrease at column %d", c)
		}
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			r := rowIdx[k]
			if r < 0 || int(r) >= rows {
				return nil, fmt.Errorf("sparse: entry (%d,%d) out of bounds for %dx%d matrix", r, c, rows, cols)
			}
			if r <= prev {
				return nil, fmt.Errorf("sparse: column %d rows not strictly ascending at row %d", c, r)
			}
			if !isFinite(val[k]) {
				return nil, fmt.Errorf("sparse: entry (%d,%d) has non-finite value %v", r, c, val[k])
			}
			prev = r
		}
	}
	return &Matrix{rows: rows, cols: cols, colPtr: colPtr, rowIdx: rowIdx, val: val}, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored nonzero entries.
func (m *Matrix) NNZ() int { return len(m.rowIdx) }

// At returns the value at (row, col). It is O(log nnz(col)) and intended
// for tests and spot checks, not inner loops.
func (m *Matrix) At(row, col int) float64 {
	if k, ok := m.find(row, col); ok {
		return m.val[k]
	}
	return 0
}

// find returns the entry index of (row, col), if stored.
func (m *Matrix) find(row, col int) (int, bool) {
	if row < 0 || row >= m.rows || col < 0 || col >= m.cols {
		return 0, false
	}
	lo, hi := m.colPtr[col], m.colPtr[col+1]
	seg := m.rowIdx[lo:hi]
	k := sort.Search(len(seg), func(i int) bool { return seg[i] >= int32(row) })
	return int(lo) + k, k < len(seg) && seg[k] == int32(row)
}

// Scale returns a copy of the matrix with every entry multiplied by f.
func (m *Matrix) Scale(f float64) *Matrix {
	out := &Matrix{
		rows:   m.rows,
		cols:   m.cols,
		colPtr: m.colPtr, // immutable: safe to share
		rowIdx: m.rowIdx,
		val:    make([]float64, len(m.val)),
	}
	for i, v := range m.val {
		out.val[i] = v * f
	}
	return out
}

// MulVec computes dst = M·x, writing into dst (which must have length
// Rows). x must have length Cols. dst and x must not alias.
func (m *Matrix) MulVec(dst, x []float64) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: matrix %dx%d, x %d, dst %d",
			m.rows, m.cols, len(x), len(dst)))
	}
	for i := range dst {
		dst[i] = 0
	}
	for c := 0; c < m.cols; c++ {
		xc := x[c]
		if xc == 0 {
			continue
		}
		lo, hi := m.colPtr[c], m.colPtr[c+1]
		for k := lo; k < hi; k++ {
			dst[m.rowIdx[k]] += m.val[k] * xc
		}
	}
}

// MulVecTrans computes dst = Mᵀ·x: dst[c] = Σ_r M[r,c]·x[r].
func (m *Matrix) MulVecTrans(dst, x []float64) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("sparse: MulVecTrans dimension mismatch: matrix %dx%d, x %d, dst %d",
			m.rows, m.cols, len(x), len(dst)))
	}
	for c := 0; c < m.cols; c++ {
		lo, hi := m.colPtr[c], m.colPtr[c+1]
		s := 0.0
		for k := lo; k < hi; k++ {
			s += m.val[k] * x[m.rowIdx[k]]
		}
		dst[c] = s
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
