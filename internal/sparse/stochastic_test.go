package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// chain builds the citation matrix of a 4-node chain 1→0, 2→1, 3→2 plus a
// dangling node 0 (no references) and node 3 citing both 2 and 0.
func chainStochastic(t *testing.T) *Stochastic {
	t.Helper()
	m := mustMatrix(t, 4, 4, []Coord{
		{Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 2, Val: 1},
		{Row: 2, Col: 3, Val: 1},
		{Row: 0, Col: 3, Val: 1},
	})
	s, err := NewColumnStochastic(m)
	if err != nil {
		t.Fatalf("NewColumnStochastic: %v", err)
	}
	return s
}

func TestStochasticNormalization(t *testing.T) {
	s := chainStochastic(t)
	if s.N() != 4 {
		t.Fatalf("N = %d, want 4", s.N())
	}
	if !s.Dangling(0) || s.Dangling(1) || s.Dangling(2) || s.Dangling(3) {
		t.Error("dangling flags wrong")
	}
	// Column 3 cites two papers: each entry 0.5.
	if got := s.At(2, 3); got != 0.5 {
		t.Errorf("At(2,3) = %v, want 0.5", got)
	}
	// Dangling column reads 1/n.
	if got := s.At(2, 0); got != 0.25 {
		t.Errorf("At(2,0) = %v, want 0.25", got)
	}
}

func TestStochasticRejectsNegative(t *testing.T) {
	m := mustMatrix(t, 2, 2, []Coord{{Row: 0, Col: 1, Val: -1}})
	if _, err := NewColumnStochastic(m); err == nil {
		t.Error("expected error for negative entry")
	}
}

func TestStochasticRejectsNonSquare(t *testing.T) {
	m := mustMatrix(t, 2, 3, nil)
	if _, err := NewColumnStochastic(m); err == nil {
		t.Error("expected error for non-square matrix")
	}
}

func TestStochasticMulVecPreservesMass(t *testing.T) {
	s := chainStochastic(t)
	x := []float64{0.1, 0.2, 0.3, 0.4}
	dst := make([]float64, 4)
	s.MulVec(dst, x)
	if diff := math.Abs(Sum(dst) - Sum(x)); diff > 1e-12 {
		t.Errorf("mass not preserved: in %v out %v", Sum(x), Sum(dst))
	}
	// Node 0's mass (dangling) should be spread as 0.1/4 to everyone,
	// plus inherited flow.
	want0 := 0.2*1 + 0.4*0.5 + 0.1/4 // from col1 + half of col3 + dangling share
	if math.Abs(dst[0]-want0) > 1e-12 {
		t.Errorf("dst[0] = %v, want %v", dst[0], want0)
	}
}

func TestStochasticDanglingMass(t *testing.T) {
	s := chainStochastic(t)
	if got := s.DanglingMass([]float64{0.7, 0.1, 0.1, 0.1}); got != 0.7 {
		t.Errorf("DanglingMass = %v, want 0.7", got)
	}
}

func TestStochasticMulVecDanglingTo(t *testing.T) {
	s := chainStochastic(t)
	x := []float64{0.25, 0.25, 0.25, 0.25}
	r := []float64{1, 0, 0, 0} // all dangling mass to node 0
	dst := make([]float64, 4)
	s.MulVecDanglingTo(dst, x, r)
	if diff := math.Abs(Sum(dst) - 1); diff > 1e-12 {
		t.Errorf("mass not preserved: %v", Sum(dst))
	}
	// Node 3 receives nothing (nobody cites it, not a dangling target).
	if dst[3] != 0 {
		t.Errorf("dst[3] = %v, want 0", dst[3])
	}
}

// Property: for any random non-negative matrix with no all-zero input
// vector, S·x preserves the L1 mass of probability vectors.
func TestStochasticMassProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		var entries []Coord
		for k := 0; k < n*2; k++ {
			entries = append(entries, Coord{
				Row: int32(rng.Intn(n)), Col: int32(rng.Intn(n)), Val: rng.Float64(),
			})
		}
		m, err := NewMatrix(n, n, entries)
		if err != nil {
			return false
		}
		s, err := NewColumnStochastic(m)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		Normalize(x)
		dst := make([]float64, n)
		s.MulVec(dst, x)
		return math.Abs(Sum(dst)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, 2, 3}
	if got := Sum(x); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
	if got := L1Diff([]float64{1, 2}, []float64{0, 4}); got != 3 {
		t.Errorf("L1Diff = %v, want 3", got)
	}
	u := Uniform(4)
	if got := Sum(u); math.Abs(got-1) > 1e-15 {
		t.Errorf("Uniform sum = %v, want 1", got)
	}
	y := []float64{1, 1}
	Fill(y, 0.5)
	if y[0] != 0.5 || y[1] != 0.5 {
		t.Errorf("Fill = %v", y)
	}
}

func TestNormalizeDegenerate(t *testing.T) {
	x := []float64{0, 0, 0, 0}
	Normalize(x)
	for _, v := range x {
		if v != 0.25 {
			t.Fatalf("Normalize zero vector = %v, want uniform", x)
		}
	}
	y := []float64{math.NaN(), 1}
	Normalize(y)
	if y[0] != 0.5 || y[1] != 0.5 {
		t.Fatalf("Normalize NaN vector = %v, want uniform", y)
	}
}

func TestNormalizeReturnsOriginalSum(t *testing.T) {
	x := []float64{2, 2}
	if got := Normalize(x); got != 4 {
		t.Errorf("Normalize returned %v, want 4", got)
	}
	if x[0] != 0.5 {
		t.Errorf("x = %v, want [0.5 0.5]", x)
	}
}
