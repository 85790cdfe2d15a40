package sparse

import (
	"fmt"
	"math"
)

// Sum returns Σ x[i].
func Sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// L1Diff returns Σ |a[i] − b[i]|, the convergence criterion used by every
// iterative method in the paper (ε ≤ 1e−12 in the experiments).
func L1Diff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("sparse: L1Diff length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Normalize scales x in place so that Σ x[i] = 1 and returns the original
// sum. If the sum is zero or non-finite, x is set to the uniform
// distribution.
func Normalize(x []float64) float64 {
	s := Sum(x)
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		u := 1 / float64(len(x))
		for i := range x {
			x[i] = u
		}
		return s
	}
	inv := 1 / s
	for i := range x {
		x[i] *= inv
	}
	return s
}

// Uniform returns a fresh probability vector of length n with all entries
// equal to 1/n.
func Uniform(n int) []float64 {
	x := make([]float64, n)
	u := 1 / float64(n)
	for i := range x {
		x[i] = u
	}
	return x
}

// Fill sets every entry of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}
