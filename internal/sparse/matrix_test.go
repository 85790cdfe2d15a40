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
	if m.Rows() != 3 || m.cols != 3 || m.NNZ() != 3 {
		t.Fatalf("dims/nnz = %d,%d,%d", m.Rows(), m.cols, m.NNZ())
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

// TestFromCSCRejects: FromCSC makes NewMatrix's checks and also
// rejects malformed pointer arrays and columns whose rows are not
// strictly ascending.
func TestFromCSCRejects(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name       string
		rows, cols int
		colPtr     []int32
		rowIdx     []int32
		val        []float64
	}{
		{"negative dims", -1, 0, []int32{0}, nil, nil},
		{"short colPtr", 2, 2, []int32{0, 1}, []int32{0}, []float64{1}},
		{"long colPtr", 2, 2, []int32{0, 1, 1, 1}, []int32{0}, []float64{1}},
		{"nil colPtr", 0, 0, nil, nil, nil},
		{"colPtr not from 0", 2, 2, []int32{1, 1, 1}, []int32{0}, []float64{1}},
		{"colPtr short of nnz", 2, 2, []int32{0, 1, 1}, []int32{0, 1}, []float64{1, 1}},
		{"decreasing colPtr", 3, 3, []int32{0, 2, 1, 2}, []int32{0, 1}, []float64{1, 1}},
		{"colPtr past nnz", 3, 3, []int32{0, 3, 1, 2}, []int32{0, 1}, []float64{1, 1}},
		{"values for rows", 2, 2, []int32{0, 1, 1}, []int32{0}, []float64{1, 2}},
		{"row out of range", 2, 2, []int32{0, 1, 1}, []int32{2}, []float64{1}},
		{"negative row", 2, 2, []int32{0, 1, 1}, []int32{-1}, []float64{1}},
		{"duplicate row", 3, 2, []int32{0, 0, 2}, []int32{1, 1}, []float64{1, 1}},
		{"descending rows", 3, 2, []int32{0, 2, 2}, []int32{2, 0}, []float64{1, 1}},
		{"NaN value", 2, 2, []int32{0, 1, 1}, []int32{0}, []float64{nan}},
		{"+Inf value", 2, 2, []int32{0, 0, 1}, []int32{1}, []float64{inf}},
		{"-Inf value", 2, 2, []int32{0, 0, 1}, []int32{1}, []float64{-inf}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := FromCSC(c.rows, c.cols, c.colPtr, c.rowIdx, c.val); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

// TestFromCSCMatchesNewMatrix: on random well-formed input, FromCSC
// equals the coordinate-sorting NewMatrix entry for entry, bit for bit,
// and wraps the arrays it is given instead of copying them.
func TestFromCSCMatchesNewMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		rows, cols := rng.Intn(30), rng.Intn(30)
		if rows == 0 {
			cols = rng.Intn(2) * cols // no rows: every column is empty
		}
		colPtr := make([]int32, cols+1)
		var rowIdx []int32
		var val []float64
		var entries []Coord
		for c := 0; c < cols; c++ {
			for r := 0; r < rows; r++ {
				if rng.Intn(4) != 0 {
					continue
				}
				v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				rowIdx = append(rowIdx, int32(r))
				val = append(val, v)
				entries = append(entries, Coord{Row: int32(r), Col: int32(c), Val: v})
			}
			colPtr[c+1] = int32(len(rowIdx))
		}
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		got, err := FromCSC(rows, cols, colPtr, rowIdx, val)
		if err != nil {
			t.Fatalf("trial %d: FromCSC: %v", trial, err)
		}
		want := mustMatrix(t, rows, cols, entries)
		if got.Rows() != want.Rows() || got.cols != want.cols || got.NNZ() != want.NNZ() {
			t.Fatalf("trial %d: %dx%d nnz %d, want %dx%d nnz %d", trial,
				got.Rows(), got.cols, got.NNZ(), want.Rows(), want.cols, want.NNZ())
		}
		for c := 0; c <= cols; c++ {
			if got.colPtr[c] != want.colPtr[c] {
				t.Fatalf("trial %d: colPtr[%d] = %d, want %d", trial, c, got.colPtr[c], want.colPtr[c])
			}
		}
		for k := range want.rowIdx {
			if got.rowIdx[k] != want.rowIdx[k] || math.Float64bits(got.val[k]) != math.Float64bits(want.val[k]) {
				t.Fatalf("trial %d: entry %d = (%d, %v), want (%d, %v)", trial, k,
					got.rowIdx[k], got.val[k], want.rowIdx[k], want.val[k])
			}
		}
		if len(rowIdx) > 0 && (&got.rowIdx[0] != &rowIdx[0] || &got.val[0] != &val[0] || &got.colPtr[0] != &colPtr[0]) {
			t.Fatalf("trial %d: FromCSC copied its input", trial)
		}
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
