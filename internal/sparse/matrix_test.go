package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustMatrix(t *testing.T, rows, cols int, entries []Coord) *Matrix {
	t.Helper()
	m, err := NewMatrix(rows, cols, entries)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	return m
}

func randomMatrix(t testing.TB, seed int64, n, nnz int) *Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Coord, nnz)
	for i := range entries {
		entries[i] = Coord{
			Row: int32(rng.Intn(n)), Col: int32(rng.Intn(n)), Val: rng.Float64(),
		}
	}
	m, err := NewMatrix(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMatrixBasic(t *testing.T) {
	m := mustMatrix(t, 3, 3, []Coord{
		{Row: 0, Col: 1, Val: 2},
		{Row: 2, Col: 1, Val: 3},
		{Row: 1, Col: 0, Val: 1},
	})
	if m.Rows() != 3 || m.Cols() != 3 || m.NNZ() != 3 {
		t.Fatalf("dims/nnz = %d,%d,%d", m.Rows(), m.Cols(), m.NNZ())
	}
	if got := m.At(0, 1); got != 2 {
		t.Errorf("At(0,1) = %v, want 2", got)
	}
	if got := m.At(2, 1); got != 3 {
		t.Errorf("At(2,1) = %v, want 3", got)
	}
	if got := m.At(1, 0); got != 1 {
		t.Errorf("At(1,0) = %v, want 1", got)
	}
	if got := m.At(2, 2); got != 0 {
		t.Errorf("At(2,2) = %v, want 0", got)
	}
}

func TestNewMatrixDuplicatesSummed(t *testing.T) {
	m := mustMatrix(t, 2, 2, []Coord{
		{Row: 0, Col: 0, Val: 1},
		{Row: 0, Col: 0, Val: 2.5},
	})
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", m.NNZ())
	}
	if got := m.At(0, 0); got != 3.5 {
		t.Errorf("At(0,0) = %v, want 3.5", got)
	}
}

func TestNewMatrixEmpty(t *testing.T) {
	m := mustMatrix(t, 4, 4, nil)
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0", m.NNZ())
	}
	dst := make([]float64, 4)
	m.MulVec(dst, []float64{1, 1, 1, 1})
	for i, v := range dst {
		if v != 0 {
			t.Errorf("dst[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewMatrixErrors(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		entries    []Coord
	}{
		{"row out of range", 2, 2, []Coord{{Row: 2, Col: 0, Val: 1}}},
		{"col out of range", 2, 2, []Coord{{Row: 0, Col: 5, Val: 1}}},
		{"negative row", 2, 2, []Coord{{Row: -1, Col: 0, Val: 1}}},
		{"NaN value", 2, 2, []Coord{{Row: 0, Col: 0, Val: math.NaN()}}},
		{"Inf value", 2, 2, []Coord{{Row: 0, Col: 0, Val: math.Inf(1)}}},
		{"negative dims", -1, 2, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewMatrix(c.rows, c.cols, c.entries); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestColumnIteration(t *testing.T) {
	m := mustMatrix(t, 4, 2, []Coord{
		{Row: 3, Col: 0, Val: 3},
		{Row: 1, Col: 0, Val: 1},
		{Row: 0, Col: 1, Val: 5},
	})
	var rows []int32
	var vals []float64
	m.Column(0, func(r int32, v float64) { rows = append(rows, r); vals = append(vals, v) })
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 3 || vals[0] != 1 || vals[1] != 3 {
		t.Errorf("Column(0) rows=%v vals=%v", rows, vals)
	}
	if got := m.ColSum(0); got != 4 {
		t.Errorf("ColSum(0) = %v, want 4", got)
	}
	if got := m.ColNNZ(1); got != 1 {
		t.Errorf("ColNNZ(1) = %d, want 1", got)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 30
	dense := make([][]float64, n)
	var entries []Coord
	for i := range dense {
		dense[i] = make([]float64, n)
	}
	for k := 0; k < 200; k++ {
		r, c := rng.Intn(n), rng.Intn(n)
		v := rng.NormFloat64()
		dense[r][c] += v
		entries = append(entries, Coord{Row: int32(r), Col: int32(c), Val: v})
	}
	m := mustMatrix(t, n, n, entries)

	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	got := make([]float64, n)
	m.MulVec(got, x)
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += dense[i][j] * x[j]
		}
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want)
		}
	}

	gotT := make([]float64, n)
	m.MulVecTrans(gotT, x)
	for j := 0; j < n; j++ {
		want := 0.0
		for i := 0; i < n; i++ {
			want += dense[i][j] * x[i]
		}
		if math.Abs(gotT[j]-want) > 1e-9 {
			t.Fatalf("MulVecTrans[%d] = %v, want %v", j, gotT[j], want)
		}
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	m := mustMatrix(t, 2, 3, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	m.MulVec(make([]float64, 2), make([]float64, 2))
}

func TestScale(t *testing.T) {
	m := mustMatrix(t, 2, 2, []Coord{{Row: 0, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: -4}})
	s := m.Scale(0.5)
	if got := s.At(0, 0); got != 1 {
		t.Errorf("scaled At(0,0) = %v, want 1", got)
	}
	if got := s.At(1, 1); got != -2 {
		t.Errorf("scaled At(1,1) = %v, want -2", got)
	}
	if got := m.At(0, 0); got != 2 {
		t.Errorf("original mutated: At(0,0) = %v, want 2", got)
	}
}

// Property: MulVec is linear — M(a·x + b·y) = a·Mx + b·My.
func TestMulVecLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 12
	var entries []Coord
	for k := 0; k < 40; k++ {
		entries = append(entries, Coord{
			Row: int32(rng.Intn(n)), Col: int32(rng.Intn(n)), Val: rng.NormFloat64(),
		})
	}
	m, err := NewMatrix(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = r.NormFloat64(), r.NormFloat64()
		}
		comb := make([]float64, n)
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		lhs := make([]float64, n)
		m.MulVec(lhs, comb)
		mx := make([]float64, n)
		my := make([]float64, n)
		m.MulVec(mx, x)
		m.MulVec(my, y)
		for i := range lhs {
			if math.Abs(lhs[i]-(a*mx[i]+b*my[i])) > 1e-6*(1+math.Abs(lhs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
