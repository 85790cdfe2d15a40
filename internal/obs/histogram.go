package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram: Observe finds the first bucket
// whose upper bound is ≥ v (le semantics) with a binary search and
// bumps it atomically. Bucket bounds are immutable after registration,
// so observations never allocate and never lock.
type Histogram struct {
	bounds []float64       // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (the +Inf bucket is implicit; bounds are sorted).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", h)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, addBits(old, v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the idiom for
// latency histograms.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return bitsToFloat(h.sum.Load()) }

func (h *Histogram) samples(add func(string, string, float64)) {
	h.sampleAs("", add)
}

// sampleAs emits the _bucket/_sum/_count lines, merging extra label
// pairs (from a vec child) before the le label.
func (h *Histogram) sampleAs(extraLabels string, add func(string, string, float64)) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		add("_bucket", joinLabels(extraLabels, `le="`+formatFloat(b)+`"`), float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	add("_bucket", joinLabels(extraLabels, `le="+Inf"`), float64(cum))
	add("_sum", wrapLabels(extraLabels), h.Sum())
	add("_count", wrapLabels(extraLabels), float64(cum))
}

// ExpBuckets returns n upper bounds starting at start, each factor times
// the previous — the shape latency and residual distributions want.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n upper bounds start, start+width, ….
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 {
		panic("obs: LinearBuckets needs n ≥ 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// LatencyBuckets is the default bucket layout for request/IO latency
// histograms, in seconds: 50µs … ~26s, factor 2.
var LatencyBuckets = ExpBuckets(50e-6, 2, 20)
