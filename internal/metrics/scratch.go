package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Scratch holds reusable buffers for the allocating metrics so a sweep
// loop evaluating hundreds of grid cells against one ground-truth vector
// stops paying an O(N) allocation tax per cell. Results are bit-identical
// to the package-level Spearman/NDCG: the same tie averaging and the
// same summation orders over the same descending ordering (the stable
// radix sort every ordering in this package runs, see radixOrderDesc) —
// only the buffer lifetimes differ.
//
// The second argument of Spearman and the gains argument of NDCG are
// additionally memoized by slice identity: passing the same backing
// slice again (the common shape — many score vectors scored against one
// truth vector) skips its O(N log N) re-ranking entirely. Callers must
// not mutate a memoized slice between calls; pass a fresh slice to force
// recomputation.
//
// A Scratch is not safe for concurrent use; give each sweep worker its
// own.
type Scratch struct {
	order []int
	ranks []float64 // rank buffer for the varying (first) side

	radixSorter

	truthPtr   *float64 // identity key of the memoized rank side
	truthLen   int
	truthRanks []float64

	gainsPtr    *float64 // identity key of the memoized NDCG gains
	gainsLen    int
	idealPrefix []float64 // idealPrefix[k] = IDCG@k of the memoized gains
}

// NewScratch returns an empty scratch; buffers grow on first use and are
// reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// grow readies the shared order buffer for n items.
func (s *Scratch) grow(n int) {
	if cap(s.order) < n {
		s.order = make([]int, n)
	}
	s.order = s.order[:n]
}

// Spearman is the scratch-backed form of the package-level Spearman:
// identical results, no per-call allocations once the buffers are warm,
// and the rank vector of b memoized by slice identity.
func (s *Scratch) Spearman(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("metrics: spearman length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, fmt.Errorf("metrics: spearman needs at least 2 items, got %d", len(a))
	}
	s.grow(len(a))
	if cap(s.ranks) < len(a) {
		s.ranks = make([]float64, len(a))
	}
	s.ranks = s.ranks[:len(a)]
	s.radixOrderDesc(s.order, a)
	averageTiedRanks(s.ranks, s.order, a)

	if &b[0] != s.truthPtr || len(b) != s.truthLen {
		if cap(s.truthRanks) < len(b) {
			s.truthRanks = make([]float64, len(b))
		}
		s.truthRanks = s.truthRanks[:len(b)]
		s.radixOrderDesc(s.order, b)
		averageTiedRanks(s.truthRanks, s.order, b)
		s.truthPtr, s.truthLen = &b[0], len(b)
	}
	return pearson(s.ranks, s.truthRanks)
}

// NDCG is the scratch-backed form of the package-level NDCG: identical
// results, with the ideal-DCG prefix of gains memoized by slice identity
// so repeated calls against one ground truth sort it once for every k.
func (s *Scratch) NDCG(scores, gains []float64, k int) (float64, error) {
	if len(scores) != len(gains) {
		return 0, fmt.Errorf("metrics: ndcg length mismatch %d vs %d", len(scores), len(gains))
	}
	if k <= 0 {
		return 0, fmt.Errorf("metrics: ndcg needs k > 0, got %d", k)
	}
	if len(scores) == 0 {
		return 0, fmt.Errorf("metrics: ndcg on empty input")
	}
	if k > len(scores) {
		k = len(scores)
	}
	if &gains[0] != s.gainsPtr || len(gains) != s.gainsLen {
		ideal := make([]float64, len(gains))
		copy(ideal, gains)
		sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
		if cap(s.idealPrefix) < len(gains)+1 {
			s.idealPrefix = make([]float64, len(gains)+1)
		}
		s.idealPrefix = s.idealPrefix[:len(gains)+1]
		s.idealPrefix[0] = 0
		idcg := 0.0
		for i, g := range ideal {
			idcg += g / math.Log2(float64(i)+2)
			s.idealPrefix[i+1] = idcg
		}
		s.gainsPtr, s.gainsLen = &gains[0], len(gains)
	}
	s.grow(len(scores))
	s.radixOrderDesc(s.order, scores) // identical permutation to Ordering
	dcg := dcgAtK(s.order, gains, k)
	idcg := s.idealPrefix[k]
	if idcg == 0 {
		return 0, fmt.Errorf("metrics: ideal DCG is zero (no positive gains)")
	}
	v := dcg / idcg
	if v > 1 { // floating-point drift guard
		v = 1
	}
	return v, nil
}
