package impact

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// thresholdsBySort is the full-sort DeriveThresholds that selection
// replaced, kept as the reference its cutoffs must equal.
func thresholdsBySort(scores []float64) Thresholds {
	sorted := append([]float64(nil), scores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var t Thresholds
	for c, f := range ClassFractions {
		k := int(f * float64(len(sorted)))
		if k < 1 {
			k = 1
		}
		t.Top[c] = sorted[k-1]
	}
	return t
}

// TestThresholdsMatchSortReference: the selected cutoffs carry the same
// bits as the sorted ones at sizes on both sides of the 1e-4 boundary
// (N = 9 999 gives k_C1 = 0 → 1, N = 10 000 gives 1), on heavy ties —
// integer counts that are mostly zero, a few distinct values, a single
// plateau, a sorted run and a reversed one — and on distinct scores
// with infinities.
func TestThresholdsMatchSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"counts", func(int, int) float64 {
			if rng.Intn(5) > 0 {
				return 0
			}
			return float64(rng.Intn(40))
		}},
		{"few-values", func(int, int) float64 { return float64(rng.Intn(3)) / 7 }},
		{"plateau", func(int, int) float64 { return 0.25 }},
		{"ascending", func(i, _ int) float64 { return float64(i / 3) }},
		{"descending", func(i, n int) float64 { return float64((n - i) / 3) }},
		{"distinct", func(i, _ int) float64 {
			switch i {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rng.ExpFloat64()
		}},
	}
	for _, n := range []int{1, 9999, 10000, 100000} {
		for _, sh := range shapes {
			name, gen := sh.name, sh.gen
			scores := make([]float64, n)
			for i := range scores {
				scores[i] = gen(i, n)
			}
			got, want := DeriveThresholds(scores), thresholdsBySort(scores)
			for c := range want.Top {
				if math.Float64bits(got.Top[c]) != math.Float64bits(want.Top[c]) {
					t.Fatalf("n=%d %s: C%d cutoff %v, sort gives %v", n, name, c+1, got.Top[c], want.Top[c])
				}
			}
		}
	}
}
