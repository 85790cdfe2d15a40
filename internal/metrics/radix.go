package metrics

import (
	"math"
	"sync"
)

// descKey maps a float64 to a uint64 whose ascending unsigned order is
// the descending order of the floats: the standard IEEE-754 total-order
// bit trick (flip all bits of negatives, set the sign bit of
// non-negatives) gives ascending order, and complementing it flips the
// direction. Callers fold -0 into +0 first so that radix tie groups
// coincide with == tie groups.
func descKey(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		u = ^u
	} else {
		u |= 1 << 63
	}
	return ^u
}

// radixSorter holds the reusable buffers of radixOrderDesc. Scratch
// embeds one; Ordering and RanksFromScores borrow one from sorters.
type radixSorter struct {
	keys     []uint64
	keysTmp  []uint64
	orderTmp []int
	counts   []int32
}

// sorters recycles radixSorters across Ordering and RanksFromScores
// calls, so a published epoch's ordering allocates only its result.
var sorters = sync.Pool{New: func() any { return new(radixSorter) }}

// radixOrderDesc fills order (len(scores) entries) with item indices
// sorted by descending score, equal scores in ascending index order —
// exactly Ordering's contract, and the one ordering implementation of
// this package. It is a stable LSD counting sort over four 16-bit
// digits of the key, which on 50k–100k-element vectors runs several
// times faster than sort.Slice and allocates nothing once the buffers
// are warm.
//
// Equivalence with a comparison sort is exact, not approximate:
//   - the permutation itself is identical to sorting by (score
//     descending, index ascending) — descending score is a total order
//     on the folded keys, and LSD stability over the ascending initial
//     order reproduces the ascending-index tie-break;
//   - for rank computation (Spearman) only tie-group membership matters,
//     and folded-key equality coincides with float equality.
//
// NaN scores are the one divergence: a comparison sort places them
// arbitrarily (the less-than closure is inconsistent for NaN), while the
// radix key gives them a fixed position. Every metric in this package
// already returns NaN or an error for NaN inputs, so no caller can
// observe the difference.
func (s *radixSorter) radixOrderDesc(order []int, scores []float64) {
	n := len(scores)
	if n == 0 {
		return
	}
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.keysTmp = make([]uint64, n)
		s.orderTmp = make([]int, n)
	}
	keys, keysTmp := s.keys[:n], s.keysTmp[:n]
	orderTmp := s.orderTmp[:n]
	if s.counts == nil {
		s.counts = make([]int32, 4<<16)
	}
	// All four digit histograms are built in the key-generation pass —
	// a digit's histogram is permutation-invariant, so counting up front
	// instead of per pass removes four full reads of the key array
	// without changing any pass's counting sort.
	counts := s.counts
	for i := range counts {
		counts[i] = 0
	}
	for i, f := range scores {
		if f == 0 {
			f = 0 // fold -0 into +0: == ties must share a key
		}
		order[i] = i
		k := descKey(f)
		keys[i] = k
		counts[k&0xffff]++
		counts[1<<16+(k>>16)&0xffff]++
		counts[2<<16+(k>>32)&0xffff]++
		counts[3<<16+(k>>48)&0xffff]++
	}
	src, dst := order, orderTmp
	ksrc, kdst := keys, keysTmp
	for pass := uint(0); pass < 4; pass++ {
		shift := pass * 16
		counts := counts[pass<<16 : (pass+1)<<16 : (pass+1)<<16]
		if int(counts[(ksrc[0]>>shift)&0xffff]) == n {
			continue // all keys share this digit: the pass is the identity
		}
		sum := int32(0)
		for d := range counts {
			c := counts[d]
			counts[d] = sum
			sum += c
		}
		for i, k := range ksrc {
			d := (k >> shift) & 0xffff
			p := counts[d]
			counts[d] = p + 1
			dst[p] = src[i]
			kdst[p] = k
		}
		src, dst = dst, src
		ksrc, kdst = kdst, ksrc
	}
	if &src[0] != &order[0] {
		copy(order, src)
	}
}
