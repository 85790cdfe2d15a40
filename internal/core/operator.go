package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"attrank/internal/graph"
	"attrank/internal/sparse"
)

// Operator is the compiled form of AttRank over one immutable network: it
// owns the tiled kernel of the column-stochastic citation matrix with its
// relabeling, a persistent worker pool, and small caches of the
// attention and recency vectors. The CSC form the tiles are cut from is
// not kept. Compile once, then call Rank as
// many times as needed — across power iterations, across warm-started
// re-ranks of a live corpus, and across the cells of a parameter sweep —
// without ever rebuilding matrix state.
//
// Everything heavy is built lazily on first use: an operator compiled for
// a network that is only ever ranked with α = 0 never assembles a matrix,
// and the tiled layout plus worker pool exist only once an iterating
// rank runs. Rank returns the same Result for every Workers value: the
// count only caps how many pool tasks claim tiles (see
// sparse.TiledStochastic.Step). All methods are safe for concurrent use;
// concurrent Rank calls share the matrix read-only and the pool
// interleaves their tile-claiming tasks.
type Operator struct {
	net *graph.Network

	mu    sync.Mutex // guards the lazy state below
	tiled *sparse.TiledStochastic
	pool  *sparse.Pool
	att   vecCache[attKey]
	rec   vecCache[recKey]

	// perm is the degree-run paper-id relabeling the tiled kernel was
	// compiled under (perm[original] = storage). Everything outside
	// the iteration loop — Params, Results, Explain, the vector caches'
	// public copies — stays in original id space; score and
	// attention/recency vectors cross the boundary through
	// permute/unpermute copies at Rank entry and exit.
	perm []int32
	// forcedPerm, when set before the first iterating rank, replaces the
	// degree-run ordering. Test hook for the relabeling-invariance suite.
	forcedPerm []int32
	compile    CompileStats
}

// CompileStats records the cost and shape of the kernel compilation
// pipeline: the stochastic matrix over the network's reference lists,
// the degree-run ordering of its rows, then the tiled layout built under
// it, one after the other. A derived compile (Derived) carries the
// previous epoch's layout over instead (sparse.Stochastic.DeriveTiled):
// it has no ordering pass, and TiledNS times the derive. WallNS is the
// end-to-end pipeline time.
type CompileStats struct {
	StochasticNS int64 // dangling list over the reference lists
	RelabelNS    int64 // degree-run ordering of the matrix rows
	TiledNS      int64 // tile cutting + index compression, or the derive
	WallNS       int64 // wall clock of the whole pipeline
	Derived      bool  // layout derived from the previous epoch's
	Layout       sparse.LayoutStats
}

type attKey struct{ now, years int }

type recKey struct {
	now int
	w   float64
}

// vectorCacheCap bounds the attention/recency caches; a sweep revisits a
// handful of (now, y) and (now, w) combinations, so a small cap suffices
// and keeps a long-lived operator from accumulating vectors.
const vectorCacheCap = 16

// vecCache is a tiny LRU of computed vectors. Capacity overflow evicts
// exactly one entry — the least recently used — so the vector a caller
// is hammering always survives a sweep over many one-off keys. (The old
// policy cleared the whole map, which made an alternating hot-key/sweep
// pattern recompute the hot vector on every call.) Callers synchronize
// through the operator's mutex.
type vecCache[K comparable] struct {
	entries map[K]*vecEntry
	clock   int64
}

type vecEntry struct {
	v    []float64 // original id space
	vp   []float64 // permuted twin for the tiled kernel; built lazily
	used int64
}

// get returns the cached entry and bumps its recency.
func (c *vecCache[K]) get(k K) (*vecEntry, bool) {
	e, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.clock++
	e.used = c.clock
	return e, true
}

// put inserts a vector, evicting the single least-recently-used entry
// if the cache is full. The O(cap) scan is irrelevant next to the
// O(N) vector computation that preceded every put.
func (c *vecCache[K]) put(k K, v []float64) *vecEntry {
	if c.entries == nil {
		c.entries = make(map[K]*vecEntry)
	}
	if len(c.entries) >= vectorCacheCap {
		var (
			lruKey K
			lru    *vecEntry
		)
		for key, e := range c.entries {
			if lru == nil || e.used < lru.used {
				lruKey, lru = key, e
			}
		}
		delete(c.entries, lruKey)
		mVectorEvictions.Inc()
	}
	c.clock++
	e := &vecEntry{v: v, used: c.clock}
	c.entries[k] = e
	return e
}

// kernelCompiles counts kernel compilations, derived or from scratch,
// process-wide; with sparse.TiledBuilds it backs the compile-once
// regression tests.
var kernelCompiles atomic.Int64

// vectorComputes counts attention/recency vector computations (cache
// misses) process-wide. Diagnostic hook for the cache-eviction tests.
var vectorComputes atomic.Int64

// KernelCompiles reports how many times this process compiled a
// citation matrix into ranking-operator form, derived or from scratch.
// Diagnostic hook for tests.
func KernelCompiles() int64 { return kernelCompiles.Load() }

// Compile returns a fresh operator for the network. Matrix state is built
// lazily, so this is cheap; use OperatorFor to share compiled operators
// across Rank calls.
func Compile(net *graph.Network) *Operator {
	return &Operator{net: net}
}

// OperatorFor returns the network's operator, compiling one on first
// sight. Networks are immutable and compared by identity, so a re-rank
// of the same *graph.Network — the ingest debounce loop between
// compactions, every cell of a parameter sweep, the impact layer's
// PageRank of a ranked epoch, repeated API calls — reuses the compiled
// matrix state instead of rebuilding it. The operator lives in the
// network's memo (graph.Network.Compiled), so it lives exactly as long
// as the network: once the network is unreachable, so is the operator,
// and the pool's finalizer stops its workers.
func OperatorFor(net *graph.Network) *Operator {
	return net.Compiled(func() any { return Compile(net) }).(*Operator)
}

// Network returns the network this operator was compiled from.
func (op *Operator) Network() *graph.Network { return op.net }

// Close releases the worker pool. Subsequent Ranks recompile it;
// Close must not race with an in-flight Rank. Operators dropped without
// Close are cleaned up by the pool's finalizer.
func (op *Operator) Close() {
	op.mu.Lock()
	defer op.mu.Unlock()
	op.closePoolLocked()
}

// closePoolLocked requires op.mu.
func (op *Operator) closePoolLocked() {
	if op.pool != nil {
		op.pool.Close()
		op.pool = nil
		op.tiled = nil
	}
}

// buildTiledLocked compiles the tiled kernel pipeline: the
// column-stochastic matrix over the network's reference lists, then the
// degree-run ordering of its rows (sparse.Stochastic.DegreeOrder), then
// the tiled layout cut under that ordering. With prev, the layout of
// base's operator, it derives the layout from prev instead
// (sparse.Stochastic.DeriveTiled) and compiles from scratch only if the
// derive declines. The matrix is dropped once the tiles are cut. Requires
// op.mu.
func (op *Operator) buildTiledLocked(prev *sparse.TiledStochastic, base *graph.Network) error {
	if op.tiled != nil {
		return nil
	}
	t0 := time.Now()
	s, err := op.net.StochasticMatrix()
	stochNS := time.Since(t0).Nanoseconds()
	if err != nil {
		return err
	}
	if op.pool == nil {
		op.pool = sparse.NewPool(0)
	}
	var relabelNS int64
	tt := time.Now()
	if prev != nil {
		if bs, err := base.StochasticMatrix(); err == nil {
			op.tiled = s.DeriveTiled(op.pool, bs, prev)
		}
	}
	kind := "derived"
	if op.tiled == nil {
		kind = "scratch"
		tr := time.Now()
		perm := op.forcedPerm
		if perm == nil {
			perm = s.DegreeOrder(nil)
		}
		relabelNS = time.Since(tr).Nanoseconds()
		tt = time.Now()
		op.tiled = s.Tiled(op.pool, perm)
	}
	tiledNS := time.Since(tt).Nanoseconds()
	kernelCompiles.Add(1)
	mKernelCompiles.With(kind).Inc()
	op.perm = op.tiled.Perm()
	op.compile = CompileStats{
		StochasticNS: stochNS,
		RelabelNS:    relabelNS,
		TiledNS:      tiledNS,
		WallNS:       time.Since(t0).Nanoseconds(),
		Derived:      kind == "derived",
		Layout:       op.tiled.Stats(),
	}
	observeLayout(op.compile)
	return nil
}

// compileFrom compiles the tiled kernel, deriving its layout from
// prev's when prev's tiles exist and neither operator has a forced
// permutation; DeriveTiled itself declines unless op's matrix extends
// prev's with the same window count, and the compile then runs from
// scratch. If op is already compiled it does nothing. The previous
// operator is held only for the call.
func (op *Operator) compileFrom(prev *Operator) error {
	var pt *sparse.TiledStochastic
	if prev != op {
		prev.mu.Lock()
		if prev.forcedPerm == nil {
			pt = prev.tiled
		}
		prev.mu.Unlock()
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	if op.forcedPerm != nil {
		pt = nil
	}
	return op.buildTiledLocked(pt, prev.net)
}

// acquireTiled returns the tiled kernel, compiling it (and the pool and
// relabeling) on first use.
func (op *Operator) acquireTiled() (*sparse.TiledStochastic, error) {
	op.mu.Lock()
	defer op.mu.Unlock()
	if err := op.buildTiledLocked(nil, nil); err != nil {
		return nil, err
	}
	return op.tiled, nil
}

// PrimeKernel forces compilation of the tiled kernel — the work the
// first iterating Rank would otherwise pay — and returns the
// pipeline timings and layout statistics. Benches and servers that want
// a compiled operator before taking traffic call this explicitly.
func (op *Operator) PrimeKernel() (CompileStats, error) {
	op.mu.Lock()
	defer op.mu.Unlock()
	if err := op.buildTiledLocked(nil, nil); err != nil {
		return CompileStats{}, err
	}
	return op.compile, nil
}

// forcePermutation overrides the degree-run relabeling for tests. It
// must be called before the first iterating rank compiles the kernel.
func (op *Operator) forcePermutation(perm []int32) {
	op.mu.Lock()
	defer op.mu.Unlock()
	if op.tiled != nil {
		panic("core: forcePermutation after kernel compile")
	}
	op.forcedPerm = perm
}

// attEntryLocked returns the cache entry for A(now, y), computing the
// original-space vector on a miss. Requires op.mu.
func (op *Operator) attEntryLocked(now, years int) *vecEntry {
	key := attKey{now: now, years: years}
	e, ok := op.att.get(key)
	if !ok {
		v := AttentionVector(op.net, now, years)
		vectorComputes.Add(1)
		e = op.att.put(key, v)
	}
	return e
}

// recEntryLocked is attEntryLocked for T(now, w).
func (op *Operator) recEntryLocked(now int, w float64) *vecEntry {
	key := recKey{now: now, w: w}
	e, ok := op.rec.get(key)
	if !ok {
		v := RecencyVector(op.net, now, w)
		vectorComputes.Add(1)
		e = op.rec.put(key, v)
	}
	return e
}

// attention returns a private copy of the attention vector A(now, y),
// serving repeats from the cache (callers receive copies because Result
// exposes the vector for mutation-free diagnostics).
func (op *Operator) attention(now, years int) []float64 {
	op.mu.Lock()
	v := op.attEntryLocked(now, years).v
	op.mu.Unlock()
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// recency returns a private copy of the recency vector T(now, w), cached
// like attention.
func (op *Operator) recency(now int, w float64) []float64 {
	op.mu.Lock()
	v := op.recEntryLocked(now, w).v
	op.mu.Unlock()
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// permuteInto fills dst[perm[i]] = src[i].
func permuteInto(dst, src []float64, perm []int32) {
	for i, v := range src {
		dst[perm[i]] = v
	}
}

// permutedAttention returns the shared storage-space twin of the
// attention vector, building and caching it on first use. Callers must
// not mutate it. Must only be called once the tiled kernel (and so
// op.perm) exists.
func (op *Operator) permutedAttention(now, years int) []float64 {
	op.mu.Lock()
	defer op.mu.Unlock()
	e := op.attEntryLocked(now, years)
	if e.vp == nil {
		e.vp = make([]float64, len(e.v))
		permuteInto(e.vp, e.v, op.perm)
	}
	return e.vp
}

// permutedRecency is permutedAttention for the recency vector.
func (op *Operator) permutedRecency(now int, w float64) []float64 {
	op.mu.Lock()
	defer op.mu.Unlock()
	e := op.recEntryLocked(now, w)
	if e.vp == nil {
		e.vp = make([]float64, len(e.v))
		permuteInto(e.vp, e.v, op.perm)
	}
	return e.vp
}

// Rank computes AttRank scores at time now with the given parameters,
// reusing every compiled piece of the operator. Every rank runs the tiled
// kernel; Params.Workers only caps its concurrency, and the Result does
// not depend on it.
func (op *Operator) Rank(now int, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := op.net.N()
	if n == 0 {
		return nil, ErrEmptyNetwork
	}
	started := time.Now()
	res := &Result{Attention: op.attention(now, p.AttentionYears), Recency: op.recency(now, p.W)}
	var x, next []float64
	if p.Alpha != 0 {
		x, next = make([]float64, n), make([]float64, n)
	}
	if err := op.rankInto(res, now, p, x, next, started); err != nil {
		return nil, err
	}
	return res, nil
}

// rankInto is the single-vector ranking path Rank and RankBatch share.
// It ranks one validated cell into res, whose Attention and Recency the
// caller has set, and records the rank's telemetry. x and next are
// caller-owned n-vectors the tiled kernel ping-pongs between in storage
// id space; both are unused when α = 0. Only res.Scores is allocated
// here, so a caller that reuses one pair of buffers across cells pays one
// n-vector per cell.
func (op *Operator) rankInto(res *Result, now int, p Params, x, next []float64, started time.Time) error {
	n := op.net.N()
	att, rec := res.Attention, res.Recency
	scores := make([]float64, n)
	if p.Alpha == 0 {
		// Limit case discussed in §4.4: a single evaluation suffices.
		for i := range scores {
			scores[i] = p.Beta*att[i] + p.Gamma*rec[i]
		}
		res.Scores = scores
		res.Iterations = 1
		res.Converged = true
		res.Residuals = []float64{0}
		res.Duration = time.Since(started)
		op.observeRank(res, p)
		return nil
	}

	// The start vector is built in scores, in original id space.
	if p.Start != nil {
		if len(p.Start) != n {
			return fmt.Errorf("core: warm start has %d entries for %d papers", len(p.Start), n)
		}
		copy(scores, p.Start)
		for i, v := range scores {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("core: warm start entry %d is %v", i, v)
			}
		}
		sparse.Normalize(scores)
	} else {
		sparse.Fill(scores, 1/float64(n))
	}
	tol := p.tol()

	// The tiled kernel iterates in storage (permuted) id space, between x
	// and next. The start vector and the attention/recency vectors cross
	// the boundary here; scores cross back after convergence. Permuting a
	// vector copies bits, so every iterate is the exact permutation of the
	// serial CSC iterate (see sparse.TiledStochastic on the canonical
	// accumulation order).
	ti, err := op.acquireTiled()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	perm := op.perm
	attP := op.permutedAttention(now, p.AttentionYears)
	recP := op.permutedRecency(now, p.W)
	permuteInto(x, scores, perm)
	parts := stepParts(p.Workers)
	cur, nxt := x, next
	for iter := 1; iter <= p.maxIter(); iter++ {
		resid := ti.Step(nxt, cur, attP, recP, p.Alpha, p.Beta, p.Gamma, parts)
		res.Residuals = append(res.Residuals, resid)
		mIterationResidual.Observe(resid)
		cur, nxt = nxt, cur
		res.Iterations = iter
		if resid < tol {
			res.Converged = true
			break
		}
	}
	for i := range scores {
		scores[i] = cur[perm[i]]
	}
	res.Scores = scores
	res.Duration = time.Since(started)
	op.observeRank(res, p)
	return nil
}

// stepParts turns a Workers value into the tiled Step's concurrency cap:
// 0 and 1 step inline on the caller, N > 1 uses at most N pool tasks and
// a negative value one per GOMAXPROCS.
func stepParts(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// observeRank records the per-rank telemetry: iteration count, final
// residual, duration split by warm/cold start, and the convergence
// outcome.
func (op *Operator) observeRank(res *Result, p Params) {
	mRankIterations.Observe(float64(res.Iterations))
	if len(res.Residuals) > 0 {
		mFinalResidual.Set(res.Residuals[len(res.Residuals)-1])
	}
	mRankSeconds.With(startLabel(p.Start != nil)).Observe(res.Duration.Seconds())
	mRanksTotal.With(convergedLabel(res.Converged)).Inc()
}
