// Package obs is the observability layer of the ranking service: a
// stdlib-only metrics registry with atomic counters, gauges and
// fixed-bucket histograms, exposed in the Prometheus text format.
//
// The package exists because the hot layers of the system — the power
// method in internal/core, the write-ahead log and re-rank scheduler in
// internal/ingest, the HTTP handlers in internal/service — run entirely
// in the background, and without telemetry their behaviour (convergence
// per Theorem 1, fsync latency, debounce lag, per-route tail latency)
// is invisible. Each package registers its metrics as package-level
// variables against the Default registry; attrank-serve mounts
// Default.Handler() at /metrics.
//
// Recording a sample is wait-free on the fast path: counters and gauges
// are a single atomic add, a histogram observation is a binary search
// over a small bounds slice plus two atomic adds and one CAS loop for
// the sum. Exposition walks the registry under its lock but never
// blocks writers.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// A sampler renders the current samples of one metric family. add is
// called once per exposition line: suffix extends the family name
// ("_bucket", "_sum", …), labels is the pre-rendered label set
// (`{route="/v1/top"}` or empty), v is the sample value.
type sampler interface {
	samples(add func(suffix, labels string, v float64))
}

// family is one registered metric name with its metadata.
type family struct {
	name, help, kind string
	s                sampler
}

// Registry holds named metric families. The zero value is not usable;
// call NewRegistry (or use Default). All methods are safe for
// concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// Default is the process-wide registry every package-level metric in
// this repository registers against.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register adds a family, panicking on a duplicate name: metrics are
// package-level variables, so a duplicate is a programming error worth
// failing loudly at init time.
func (r *Registry) register(name, help, kind string, s sampler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.fams[name] = &family{name: name, help: help, kind: kind, s: s}
}

// sorted returns the families in name order for deterministic
// exposition.
func (r *Registry) sorted() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Counter is a monotonically increasing integer metric. By convention
// its name ends in _total.
type Counter struct {
	v atomic.Int64
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (which must be non-negative; counters only go up).
func (c *Counter) Add(n int64) {
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) samples(add func(string, string, float64)) {
	add("", "", float64(c.v.Load()))
}

// Gauge is a float metric that can go up and down (a current size, the
// latest residual, the live epoch).
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) samples(add func(string, string, float64)) {
	add("", "", g.Value())
}

// Package-level conveniences over Default.

// NewCounter registers a counter with the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewGauge registers a gauge with the Default registry.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewHistogram registers a histogram with the Default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.NewHistogram(name, help, buckets)
}

// NewCounterVec registers a labeled counter family with the Default
// registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labels...)
}

// NewHistogramVec registers a labeled histogram family with the Default
// registry.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return Default.NewHistogramVec(name, help, buckets, labels...)
}
