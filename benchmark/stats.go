package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs: the smallest value
// with at least q·n samples at or below it. It sorts xs in place and
// returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(len(xs), q)-1]
}

// nearestRank is the 1-based rank the nearest-rank method picks for the
// q-quantile of n samples.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked above the nearest-rank q-quantile. A
// percentile is worth printing only when at least minBeyond samples lie
// beyond it; fewer, and it is one unlucky request, not a tail.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, q)
}

// minBeyond is how many samples must lie beyond a printed percentile.
const minBeyond = 10

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
