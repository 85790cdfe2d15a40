package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// orderingReference is the comparison sort Ordering ran before the radix
// sort replaced it: (score descending, index ascending).
func orderingReference(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// ranksReference is the comparison-sorted RanksFromScores.
func ranksReference(scores []float64) []float64 {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	ranks := make([]float64, len(scores))
	averageTiedRanks(ranks, order, scores)
	return ranks
}

// plateauVector draws n scores from a small value set, so most entries
// sit on a plateau, mixed with ±0, ±Inf, subnormals and scores that
// differ only in their low digits.
func plateauVector(rng *rand.Rand, n int) []float64 {
	vals := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		1, -1, 0.5, 1e-300, -1e-300, math.SmallestNonzeroFloat64,
		1 + 1e-15, 1 - 1e-16, math.MaxFloat64, -math.MaxFloat64,
	}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = rng.NormFloat64()
		} else {
			v[i] = vals[rng.Intn(len(vals))]
		}
	}
	return v
}

// TestOrderingMatchesComparisonSort: Ordering and RanksFromScores run the
// radix sort, and must give exactly the comparison sort's permutation
// and ranks on plateaus, signed zeros and infinities.
func TestOrderingMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 2, 3, 17, 1000, 70000} {
		for rep := 0; rep < 3; rep++ {
			v := plateauVector(rng, n)
			got, want := Ordering(v), orderingReference(v)
			if len(got) != len(want) {
				t.Fatalf("n=%d: %d entries, want %d", n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d rep=%d: Ordering[%d] = %d (score %v), reference %d (score %v)",
						n, rep, i, got[i], v[got[i]], want[i], v[want[i]])
				}
			}
			gr, wr := RanksFromScores(v), ranksReference(v)
			for i := range wr {
				if gr[i] != wr[i] {
					t.Fatalf("n=%d rep=%d: rank[%d] = %v (score %v), reference %v", n, rep, i, gr[i], v[i], wr[i])
				}
			}
		}
	}
}
