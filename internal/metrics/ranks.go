// Package metrics implements the ranking-quality measures of the paper's
// evaluation: Spearman's ρ (tie-aware, via average ranks) and nDCG@k with
// the short-term impact as the gain, plus Kendall's τ and top-k overlap as
// supplementary diagnostics.
package metrics

import "fmt"

// RanksFromScores converts a score vector into fractional ranks where the
// highest score receives rank 1. Equal scores receive the average of the
// ranks they occupy (the standard treatment for Spearman's ρ with ties).
func RanksFromScores(scores []float64) []float64 {
	ranks := make([]float64, len(scores))
	averageTiedRanks(ranks, Ordering(scores), scores)
	return ranks
}

// averageTiedRanks fills ranks from a descending-score permutation:
// runs of equal scores receive the average of the positions they occupy.
// Any descending sort yields the same ranks — within a tie group the
// order is irrelevant, because the whole group gets one value.
func averageTiedRanks(ranks []float64, order []int, scores []float64) {
	n := len(scores)
	for i := 0; i < n; {
		j := i
		for j < n && scores[order[j]] == scores[order[i]] {
			j++
		}
		// Items order[i..j) are tied; average rank of positions i+1..j.
		avg := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			ranks[order[k]] = avg
		}
		i = j
	}
}

// Ordering returns item indices sorted by descending score. Ties are
// broken by ascending index so the ordering is deterministic; -0 and +0
// tie. It runs the package's radix sort (radixOrderDesc).
func Ordering(scores []float64) []int {
	order := make([]int, len(scores))
	s := sorters.Get().(*radixSorter)
	s.radixOrderDesc(order, scores)
	sorters.Put(s)
	return order
}

// TopK returns the indices of the k highest-scoring items sorted by
// (score descending, index ascending). The ascending-index tie-break is
// a pinned part of the contract — TopK(s, k) always equals the k-prefix
// of Ordering(s), so paginated reads over score plateaus are stable —
// and it holds without sorting the full vector. It runs in O(N log k) via
// bounded-heap selection, which is what OverlapAtK and one-off top-k
// queries through the public API need on large corpora. k is clamped to
// len(scores).
func TopK(scores []float64, k int) []int {
	n := len(scores)
	if k > n {
		k = n
	}
	if k <= 0 {
		return []int{}
	}
	if k == n {
		return Ordering(scores)
	}
	// h is a min-heap under "worse than": h[0] is the weakest member of
	// the running top-k, evicted whenever a better candidate appears.
	h := make([]int, 0, k)
	worse := func(a, b int) bool {
		if scores[a] != scores[b] {
			return scores[a] < scores[b]
		}
		return a > b
	}
	siftDown := func(j, size int) {
		for {
			l := 2*j + 1
			if l >= size {
				return
			}
			m := l
			if r := l + 1; r < size && worse(h[r], h[l]) {
				m = r
			}
			if !worse(h[m], h[j]) {
				return
			}
			h[j], h[m] = h[m], h[j]
			j = m
		}
	}
	for i := 0; i < n; i++ {
		if len(h) < k {
			h = append(h, i)
			for j := len(h) - 1; j > 0; {
				p := (j - 1) / 2
				if !worse(h[j], h[p]) {
					break
				}
				h[j], h[p] = h[p], h[j]
				j = p
			}
		} else if worse(h[0], i) {
			h[0] = i
			siftDown(0, k)
		}
	}
	// Heap-sort in place: repeatedly move the current weakest to the end,
	// leaving the slice ordered best-first.
	for size := len(h); size > 1; size-- {
		h[0], h[size-1] = h[size-1], h[0]
		siftDown(0, size-1)
	}
	return h
}

// OverlapAtK returns |topK(a) ∩ topK(b)| / k, the fraction of agreement
// between the two rankings' top-k sets.
func OverlapAtK(a, b []float64, k int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("metrics: overlap length mismatch %d vs %d", len(a), len(b))
	}
	if k <= 0 || len(a) == 0 {
		return 0, fmt.Errorf("metrics: overlap needs k > 0 and non-empty input")
	}
	if k > len(a) {
		k = len(a)
	}
	inA := make(map[int]struct{}, k)
	for _, i := range TopK(a, k) {
		inA[i] = struct{}{}
	}
	hits := 0
	for _, i := range TopK(b, k) {
		if _, ok := inA[i]; ok {
			hits++
		}
	}
	return float64(hits) / float64(k), nil
}
