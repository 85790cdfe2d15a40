package sparse

import (
	"fmt"
	"sort"
)

// Coord is a single nonzero entry (row, col, value) used while assembling
// a test matrix.
type Coord struct {
	Row, Col int32
	Val      float64
}

// NewMatrix assembles a CSC matrix from coordinate triples by sorting
// them. Duplicate (row, col) entries are summed. It returns an error if
// any coordinate is out of bounds or carries a non-finite value.
//
// It is the reference FromCSC is tested against, and the convenient way
// for tests to state a matrix entry by entry.
func NewMatrix(rows, cols int, entries []Coord) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of bounds for %dx%d matrix", e.Row, e.Col, rows, cols)
		}
		if !isFinite(e.Val) {
			return nil, fmt.Errorf("sparse: entry (%d,%d) has non-finite value %v", e.Row, e.Col, e.Val)
		}
	}
	sorted := make([]Coord, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Col != sorted[j].Col {
			return sorted[i].Col < sorted[j].Col
		}
		return sorted[i].Row < sorted[j].Row
	})

	m := &Matrix{
		rows:   rows,
		cols:   cols,
		colPtr: make([]int32, cols+1),
	}
	m.rowIdx = make([]int32, 0, len(sorted))
	m.val = make([]float64, 0, len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		sum := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			sum += sorted[j].Val
			j++
		}
		m.rowIdx = append(m.rowIdx, sorted[i].Row)
		m.val = append(m.val, sum)
		m.colPtr[sorted[i].Col+1]++
		i = j
	}
	for c := 0; c < cols; c++ {
		m.colPtr[c+1] += m.colPtr[c]
	}
	return m, nil
}
