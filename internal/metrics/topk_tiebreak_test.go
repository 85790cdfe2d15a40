package metrics

import (
	"math/rand"
	"reflect"
	"testing"
)

// The tie-break contract for TopK is pinned here: equal scores order by
// ascending index, exactly as Ordering does, so TopK(s, k) is always the
// k-prefix of Ordering(s). Callers (OverlapAtK, evaluation sweeps) rely
// on this for deterministic, pagination-stable output on score plateaus —
// which real rankings have in bulk, because dangling papers all share the
// same score floor — and /v1/top pages, sliced from the epoch's Ordering,
// equal TopK selections because of it.

// TestTopKAllTied: on a constant vector the top-k must be the first k
// indices, in order.
func TestTopKAllTied(t *testing.T) {
	scores := make([]float64, 17)
	for i := range scores {
		scores[i] = 0.25
	}
	for _, k := range []int{1, 2, 7, 16, 17} {
		got := TopK(scores, k)
		want := make([]int, k)
		for i := range want {
			want[i] = i
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: TopK = %v, want %v", k, got, want)
		}
	}
}

// TestTopKMatchesOrderingPrefixUnderTies is the regression test for the
// heap selection path: across seeded vectors drawn from a tiny value
// alphabet (so ties are everywhere), TopK must equal the k-prefix of the
// full deterministic Ordering for every k — including k around heap
// boundaries and k == n, which short-circuits to Ordering itself.
func TestTopKMatchesOrderingPrefixUnderTies(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(170)
		scores := make([]float64, n)
		levels := 1 + rng.Intn(5) // few distinct values → heavy ties
		for i := range scores {
			scores[i] = float64(rng.Intn(levels))
		}
		full := Ordering(scores)
		for _, k := range []int{1, 2, 3, n / 4, n / 2, n - 1, n} {
			if k < 1 {
				continue
			}
			if got := TopK(scores, k); !reflect.DeepEqual(got, full[:k]) {
				t.Fatalf("seed=%d n=%d k=%d levels=%d:\nTopK     = %v\nOrdering = %v",
					seed, n, k, levels, got, full[:k])
			}
		}
	}
}

// TestTopKStableUnderPagination: fetching the top-k in two pages via a
// larger TopK must agree with the one-shot answer — pages sliced from a
// larger selection never shear.
func TestTopKStableUnderPagination(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	scores := make([]float64, 120)
	for i := range scores {
		scores[i] = float64(rng.Intn(4))
	}
	whole := TopK(scores, 40)
	pageSize := 10
	for off := 0; off < 40; off += pageSize {
		page := TopK(scores, off+pageSize)[off : off+pageSize]
		if !reflect.DeepEqual(page, whole[off:off+pageSize]) {
			t.Fatalf("page at offset %d = %v, want %v", off, page, whole[off:off+pageSize])
		}
	}
}
