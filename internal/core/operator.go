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
// owns the normalized citation matrix (CSC), the tiled kernel with its
// relabeling, a persistent worker pool, and small caches of the
// attention and recency vectors. Compile once, then call Rank as
// many times as needed — across power iterations, across warm-started
// re-ranks of a live corpus, and across the cells of a parameter sweep —
// without ever rebuilding matrix state.
//
// Everything heavy is built lazily on first use: an operator compiled for
// a network that is only ever ranked with α = 0 never assembles a matrix,
// and the tiled layout plus worker pool exist only once a parallel rank
// (Params.Workers ≠ 0) runs. A parallel Rank returns the same Result
// for every nonzero Workers: the count only caps how many pool tasks
// claim tiles (see sparse.TiledStochastic.Step). All methods are safe
// for concurrent use; concurrent Rank calls share the matrix read-only
// and the pool interleaves their tile-claiming tasks.
type Operator struct {
	net *graph.Network

	mu    sync.Mutex // guards the lazy state below
	stoch *sparse.Stochastic
	tiled *sparse.TiledStochastic
	pool  *sparse.Pool
	att   vecCache[attKey]
	rec   vecCache[recKey]

	// perm/inv are the cache-aware paper-id relabeling the tiled kernel
	// was compiled under (perm[original] = storage). Everything outside
	// the iteration loop — Params, Results, Explain, the serial
	// reference kernel, the vector caches' public copies — stays in
	// original id space; score and attention/recency vectors cross the
	// boundary through permute/unpermute copies at Rank entry and exit.
	perm, inv []int32
	// forcedPerm, when set before the first parallel rank, replaces the
	// RCM ordering. Test hook for the relabeling-invariance suite.
	forcedPerm []int32
	compile    CompileStats

	// inflight counts parallel Ranks currently stepping on the pool;
	// evicted marks an operator dropped from the OperatorFor cache. The
	// pair lets eviction close the pool deterministically the moment it
	// goes idle, instead of waiting for the finalizer.
	inflight int
	evicted  bool
}

// CompileStats records the cost and shape of the parallel kernel
// compilation pipeline: the stochastic-matrix normalization and the RCM
// relabeling run concurrently, then the tiled layout is built from both.
// WallNS is the end-to-end pipeline time; StochasticNS + RelabelNS +
// TiledNS is what the same work would cost serially.
type CompileStats struct {
	StochasticNS int64 // CSC build + column normalization
	RelabelNS    int64 // RCM ordering over the symmetrized adjacency
	TiledNS      int64 // tile cutting + index compression
	WallNS       int64 // wall clock of the whole (concurrent) pipeline
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

// kernelCompiles counts stochastic-matrix compilations process-wide; with
// sparse.TiledBuilds it backs the compile-once regression tests.
var kernelCompiles atomic.Int64

// vectorComputes counts attention/recency vector computations (cache
// misses) process-wide. Diagnostic hook for the cache-eviction tests.
var vectorComputes atomic.Int64

// KernelCompiles reports how many times this process normalized a
// citation matrix into ranking-operator form. Diagnostic hook for tests.
func KernelCompiles() int64 { return kernelCompiles.Load() }

// Compile returns a fresh operator for the network. Matrix state is built
// lazily, so this is cheap; use OperatorFor to share compiled operators
// across Rank calls.
func Compile(net *graph.Network) *Operator {
	return &Operator{net: net}
}

// operatorCacheSize bounds the process-wide operator cache. Each entry
// pins its network plus up to two copies of the matrix (CSC + tiled), so
// the cache is deliberately small: big enough for a live service (one
// corpus), a sweep (one split), and the tests' churn, without keeping
// every historical epoch alive.
const operatorCacheSize = 4

var (
	opCacheMu sync.Mutex
	opCache   []*Operator // most recently used first
)

// OperatorFor returns the cached operator for the network, compiling one
// on first sight. Networks are immutable and compared by identity, so a
// re-rank of the same *graph.Network — the ingest debounce loop between
// compactions, every cell of a parameter sweep, repeated API calls —
// reuses the compiled matrix state instead of rebuilding it. An evicted
// operator closes its worker pool as soon as no rank is using it (the
// pool finalizer remains as the backstop for operators dropped without
// ever entering the cache).
func OperatorFor(net *graph.Network) *Operator {
	opCacheMu.Lock()
	for i, op := range opCache {
		if op.net == net {
			if i > 0 {
				copy(opCache[1:i+1], opCache[:i])
				opCache[0] = op
			}
			opCacheMu.Unlock()
			return op
		}
	}
	op := Compile(net)
	var dropped *Operator
	if len(opCache) < operatorCacheSize {
		opCache = append(opCache, nil)
	} else {
		dropped = opCache[len(opCache)-1]
	}
	copy(opCache[1:], opCache)
	opCache[0] = op
	opCacheMu.Unlock()
	if dropped != nil {
		dropped.markEvicted()
	}
	return op
}

// Network returns the network this operator was compiled from.
func (op *Operator) Network() *graph.Network { return op.net }

// Close releases the worker pool. Subsequent parallel Ranks recompile it;
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

// markEvicted is called by the operator cache when this entry falls out:
// the pool is closed the moment no parallel rank is stepping on it
// (immediately if idle, else by the last release). A caller that kept
// the *Operator may still Rank afterwards — the pool is then recompiled
// exactly as after Close, and only that recompiled pool falls back to
// finalizer cleanup.
func (op *Operator) markEvicted() {
	op.mu.Lock()
	op.evicted = true
	if op.inflight == 0 {
		op.closePoolLocked()
	}
	op.mu.Unlock()
}

// stochastic returns the column-stochastic matrix, compiling it on first
// use.
func (op *Operator) stochastic() (*sparse.Stochastic, error) {
	op.mu.Lock()
	defer op.mu.Unlock()
	return op.stochasticLocked()
}

func (op *Operator) stochasticLocked() (*sparse.Stochastic, error) {
	if op.stoch == nil {
		s, err := op.net.StochasticMatrix()
		if err != nil {
			return nil, err
		}
		op.stoch = s
		kernelCompiles.Add(1)
		mKernelCompiles.Inc()
	}
	return op.stoch, nil
}

// buildTiledLocked compiles the parallel kernel pipeline: the
// column-stochastic normalization and the RCM relabeling are
// independent (the relabeling reads only the immutable network
// adjacency), so they run concurrently; once both finish, the
// degree-run ordering — which needs the matrix pattern — refines the
// RCM ranks, and the tiled layout is cut from the result. Requires
// op.mu.
func (op *Operator) buildTiledLocked() error {
	if op.tiled != nil {
		return nil
	}
	t0 := time.Now()
	type permResult struct {
		perm []int32
		ns   int64
	}
	permCh := make(chan permResult, 1)
	if op.forcedPerm != nil {
		permCh <- permResult{perm: op.forcedPerm}
	} else {
		net := op.net
		go func() {
			tp := time.Now()
			n := net.N()
			deg := make([]int32, n)
			for i := range deg {
				deg[i] = int32(net.Degree(int32(i)))
			}
			perm := sparse.RCMOrder(n, deg, net.Neighbors)
			permCh <- permResult{perm: perm, ns: time.Since(tp).Nanoseconds()}
		}()
	}
	ts := time.Now()
	s, err := op.stochasticLocked()
	stochNS := time.Since(ts).Nanoseconds()
	if err != nil {
		return err // permCh is buffered; the relabel goroutine cannot leak
	}
	pr := <-permCh
	if op.forcedPerm == nil {
		// Production relabeling: degree runs for branch-predictable trip
		// counts, RCM ranks breaking ties for residual locality.
		td := time.Now()
		pr.perm = s.DegreeOrder(pr.perm)
		pr.ns += time.Since(td).Nanoseconds()
	}
	if op.pool == nil {
		op.pool = sparse.NewPool(0)
	}
	tt := time.Now()
	op.tiled = s.Tiled(op.pool, pr.perm)
	tiledNS := time.Since(tt).Nanoseconds()
	op.perm = op.tiled.Perm()
	op.inv = sparse.InversePerm(op.perm)
	op.compile = CompileStats{
		StochasticNS: stochNS,
		RelabelNS:    pr.ns,
		TiledNS:      tiledNS,
		WallNS:       time.Since(t0).Nanoseconds(),
		Layout:       op.tiled.Stats(),
	}
	observeLayout(op.compile)
	return nil
}

// acquireTiled returns the tiled kernel, compiling it (and the pool and
// relabeling) on first use, and registers the caller as an in-flight
// pool user. The returned release must be called once stepping is done;
// it lets an operator evicted mid-rank close its pool as soon as it
// goes idle.
func (op *Operator) acquireTiled() (*sparse.TiledStochastic, func(), error) {
	op.mu.Lock()
	defer op.mu.Unlock()
	if err := op.buildTiledLocked(); err != nil {
		return nil, nil, err
	}
	op.inflight++
	return op.tiled, op.releaseKernel, nil
}

func (op *Operator) releaseKernel() {
	op.mu.Lock()
	op.inflight--
	if op.evicted && op.inflight == 0 {
		op.closePoolLocked()
	}
	op.mu.Unlock()
}

// PrimeKernel forces compilation of the parallel tiled kernel — the
// work the first parallel Rank would otherwise pay — and returns the
// pipeline timings and layout statistics. Benches and servers that want
// a compiled operator before taking traffic call this explicitly.
func (op *Operator) PrimeKernel() (CompileStats, error) {
	op.mu.Lock()
	defer op.mu.Unlock()
	if err := op.buildTiledLocked(); err != nil {
		return CompileStats{}, err
	}
	return op.compile, nil
}

// forcePermutation overrides the RCM relabeling for tests. It must be
// called before the first parallel rank compiles the kernel.
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
// reusing every compiled piece of the operator. Params.Workers selects
// the kernel exactly as in the package-level Rank: 0 runs the serial CSC
// reference kernel, any other value the tiled parallel kernel.
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
		x = make([]float64, n)
		if p.Workers != 0 {
			next = make([]float64, n)
		}
	}
	if err := op.rankInto(res, now, p, x, next, started); err != nil {
		return nil, err
	}
	return res, nil
}

// rankInto is the single-vector ranking path Rank and RankBatch share.
// It ranks one validated cell into res, whose Attention and Recency the
// caller has set, and records the rank's telemetry. x and next are
// caller-owned n-vectors the power iterations use: both are unused when
// α = 0, and next also when Workers = 0, where the reference kernel
// ping-pongs between the scores and x. Only res.Scores is allocated
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

	if p.Workers == 0 {
		// Serial CSC reference kernel: the bit-level ground truth the
		// tiled kernel is tested against. It iterates in original id
		// space, between scores and x.
		s, err := op.stochastic()
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		cur, nxt := scores, x
		for iter := 1; iter <= p.maxIter(); iter++ {
			s.MulVec(nxt, cur)
			for i := range nxt {
				nxt[i] = p.Alpha*nxt[i] + p.Beta*att[i] + p.Gamma*rec[i]
			}
			resid := sparse.L1Diff(nxt, cur)
			res.Residuals = append(res.Residuals, resid)
			mIterationResidual.Observe(resid)
			cur, nxt = nxt, cur
			res.Iterations = iter
			if resid < tol {
				res.Converged = true
				break
			}
		}
		if &cur[0] != &scores[0] {
			copy(scores, cur)
		}
	} else {
		// Parallel path: the tiled kernel iterates in storage (permuted)
		// id space, between x and next. The start vector and the
		// attention/recency vectors cross the boundary here; scores cross
		// back after convergence. Permuting a vector copies bits, so every
		// iterate is the exact permutation of the reference iterate (see
		// sparse.TiledStochastic on the canonical accumulation order).
		ti, release, err := op.acquireTiled()
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		perm := op.perm
		attP := op.permutedAttention(now, p.AttentionYears)
		recP := op.permutedRecency(now, p.W)
		permuteInto(x, scores, perm)
		parts := p.Workers
		if parts < 0 {
			parts = runtime.GOMAXPROCS(0)
		}
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
		release()
		for i := range scores {
			scores[i] = cur[perm[i]]
		}
	}
	res.Scores = scores
	res.Duration = time.Since(started)
	op.observeRank(res, p)
	return nil
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
