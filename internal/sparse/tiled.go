package sparse

import (
	"fmt"
	"math"
	"sync/atomic"
)

// tiledBuilds counts tiled-layout compilations process-wide. The
// compile-once regression tests use it to prove that repeated ranks of
// one network cut the layout exactly once.
var tiledBuilds atomic.Int64

// TiledBuilds reports how many tiled layouts this process has compiled.
// Diagnostic hook for tests.
func TiledBuilds() int64 { return tiledBuilds.Load() }

// DefaultTileRows is the row-block height of the tiled layout. 2048 rows
// keep a tile's slice of the output vector L1-resident (16KB of next)
// while leaving dozens of tiles even on mid-sized corpora, so the
// workers claiming tiles have granularity to balance with.
const DefaultTileRows = 2048

// WindowBits fixes the column-window width of the tiled layout: columns
// are grouped into contiguous windows of 2^16 ORIGINAL ids, and every
// stored column word is a uint16 offset inside its window. 16 bits is
// the largest word that halves CSR's 4-byte column indices, and the
// 64Ki·8B = 512KB window of x it can address is the unit the relabeling
// optimizes within.
const WindowBits = 16

const windowSize = 1 << WindowBits

// TiledStochastic is the cache-aware compiled form of a column-stochastic
// matrix for the power-method hot loop. Its Step fuses the four
// per-iteration passes of the serial reference — SpMV, dangling-mass
// redistribution, the α/β/γ combine and the L1 residual — into one
// parallel sweep over a row-blocked, index-compressed layout, optionally
// under a row/column relabeling (the same permutation applied to both
// sides, so the matrix stays column-stochastic).
//
// Layout. Rows are renumbered by perm (perm[old] = new) and grouped into
// contiguous blocks of tileRows rows — the unit a worker claims.
// Entries are stored row-major; within a row they are ordered by
// ascending ORIGINAL column id, which segments them into runs per
// column window (window = original id >> WindowBits; the
// permutation is window-preserving, see below, so this is also the
// storage id's window). Each entry stores one uint16 word
//
//	word = storage column − wbase[window]
//
// where wbase[j] = min(j·64Ki, n−64Ki) so that x[wbase[j] : wbase[j]+64Ki]
// is always a full 64Ki slice of the iterate: the kernel gathers through
// a fixed-length window view, which both halves CSR's index bytes and
// lets the compiler drop the gather's bounds check (a uint16 cannot
// escape a 65536-long slice). splits[j−1][r] marks where row r's window-j
// run begins; with W = ⌈n/64Ki⌉ windows that is W−1 extra int32 planes,
// W−1 ≤ 1 for corpora up to 131k papers.
//
// Values. The matrix must be uniform per column: every entry of a column
// bitwise equal, as 1/out-degree normalization of a duplicate-free 0/1
// citation matrix guarantees (Eq. 4's S[p,j] = 1/k_j). The layout stores
// that one value per column in colVal (indexed by storage column id), and
// Step precomputes y[c] = colVal[c]·x[c] once, so the per-entry work is a
// gather-add of y. Each product is the same two bit patterns the
// reference multiplies, so every addend — and hence every score — is
// bit-identical to the per-entry form. A column holding two different
// values panics at compile.
//
// Permutation contract. perm must be window-preserving: perm[i] >> 16 ==
// i >> 16 for every i (DegreeOrder, the production ordering, is
// window-preserving by construction). Relabeling therefore reorders rows
// and columns freely WITHIN each 64Ki window but never across windows.
// That constraint is what keeps the kernel bit-exact, as follows.
//
// Accumulation order. The serial CSC reference kernel accumulates each
// row's dot product in ascending original-column order (CSC streams
// columns ascending). This layout canonicalizes on exactly that order
// regardless of perm: the builder scatters entries row by row while
// walking the CSC columns ascending, so row r's entries appear in
// ascending original-column order even when their storage ids are
// shuffled, and because the permutation is window-preserving the
// window-run segmentation is by original window too — walking the runs
// in window order IS walking the originals ascending. Each contribution
// colVal[col]·x[col] is bitwise the value the identity layout reads (a
// permuted vector is a copy, not an arithmetic transform), so every score in
// permuted space equals the identity-layout score of the corresponding
// original row, bit for bit. The dangling-mass gather is kept in
// ascending original-column order for the same reason. The L1 residual
// is summed per tile in row order and the tile partials are tree-reduced
// in tile order, so it too is fixed by the layout, whatever the worker
// count. It differs from the serial reference's one sequential sum in
// its final ulps; the residual is a stopping criterion, not an output.
type TiledStochastic struct {
	rows     int
	nnz      int
	windows  int     // W = ⌈rows/64Ki⌉ column windows
	rowPtr   []int32 // permuted-row entry pointers, len rows+1
	splits   [][]int32
	colVal   []float64 // per-storage-column value, len rows
	cols     []uint16  // one window-local word per entry
	wbase    []int32   // len W: x-offset of each window view
	tiles    []tileHeader
	dangling []int32 // permuted dangling columns, ascending ORIGINAL order
	perm     []int32 // old → new (shared, read-only; identity if nil given)
	pool     *Pool

	scratch      *VecPool // len-rows vectors, the per-step y buffer
	partials     *VecPool // len-tiles vectors, the per-step residual partials
	lanePartials *VecPool // len Lanes·tiles, StepLanes' residual partials

	occupiedRow int // rows with ≥1 entry (for occupancy telemetry)
}

// tileHeader is one row block — the unit a worker claims and the
// residual's summation unit.
type tileHeader struct {
	rowLo, rowHi int32 // permuted row range [rowLo, rowHi)
}

// Tiled compiles the stochastic matrix into the tiled layout under the
// given relabeling (nil = identity) at the default tile height. The pool
// is owned by the caller; nil restricts Step to parts ≤ 1. perm must be
// window-preserving and every column of s uniform (see the type
// comment); either violation panics.
func (s *Stochastic) Tiled(pool *Pool, perm []int32) *TiledStochastic {
	return s.TiledRows(pool, perm, DefaultTileRows)
}

// TiledRows is Tiled with an explicit tile height, exposed for layout
// studies and the boundary-shape tests (single-tile graphs, many-tile
// layouts via tiny heights).
func (s *Stochastic) TiledRows(pool *Pool, perm []int32, tileRows int) *TiledStochastic {
	if tileRows < 1 {
		tileRows = DefaultTileRows
	}
	tiledBuilds.Add(1)
	m := s.m
	n := m.rows
	if perm == nil {
		perm = IdentityPerm(n)
	}
	for i, p := range perm {
		if p>>WindowBits != int32(i)>>WindowBits {
			panic(fmt.Sprintf("sparse: Tiled permutation is not window-preserving: perm[%d] = %d crosses a %d-id window", i, p, windowSize))
		}
	}
	w := (n + windowSize - 1) / windowSize
	if w < 1 {
		w = 1
	}
	t := &TiledStochastic{
		rows:    n,
		nnz:     len(m.val),
		windows: w,
		rowPtr:  make([]int32, n+1),
		cols:    make([]uint16, len(m.val)),
		wbase:   make([]int32, w),
		perm:    perm,
		pool:    pool,
		colVal:  make([]float64, n),
		scratch: NewVecPool(n),
	}
	// One value per column: every entry of a column must be bitwise equal
	// (true by construction for 1/out-degree normalization of 0/1
	// citations).
	for c := 0; c < m.cols; c++ {
		lo, hi := m.colPtr[c], m.colPtr[c+1]
		for k := lo + 1; k < hi; k++ {
			if m.val[k] != m.val[lo] {
				panic(fmt.Sprintf("sparse: Tiled column %d is not uniform: entries %v and %v differ", c, m.val[lo], m.val[k]))
			}
		}
		if lo < hi {
			t.colVal[perm[c]] = m.val[lo]
		}
	}
	for j := range t.wbase {
		base := j << WindowBits
		if max := n - windowSize; base > max && max >= 0 {
			base = max
		}
		t.wbase[j] = int32(base)
	}

	// Pass 1: entry counts per permuted row.
	for _, r := range m.rowIdx {
		t.rowPtr[perm[r]+1]++
	}
	for i := 0; i < n; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}

	// Pass 2: scatter window-local column words. Walking the CSC
	// columns ascending fills every row's entries in ascending
	// ORIGINAL column order — the canonical accumulation order — which,
	// under a window-preserving perm, also groups them into ascending
	// window runs.
	winAt := make([]uint16, len(m.val)) // transient: window id per entry
	cursor := make([]int32, n)
	for c := 0; c < m.cols; c++ {
		pc := perm[c]
		j := pc >> WindowBits
		word := uint16(pc - t.wbase[j])
		for k := m.colPtr[c]; k < m.colPtr[c+1]; k++ {
			nr := perm[m.rowIdx[k]]
			pos := t.rowPtr[nr] + cursor[nr]
			t.cols[pos] = word
			winAt[pos] = uint16(j)
			cursor[nr]++
		}
	}

	// Pass 3: per-row window split points. splits[j-1][r] is the first
	// entry of row r whose window is ≥ j; runs are contiguous because
	// entries are window-sorted within each row.
	if w > 1 {
		t.splits = make([][]int32, w-1)
		for j := range t.splits {
			t.splits[j] = make([]int32, n)
		}
		for r := 0; r < n; r++ {
			a, b := t.rowPtr[r], t.rowPtr[r+1]
			k := a
			for j := 1; j < w; j++ {
				for k < b && int(winAt[k]) < j {
					k++
				}
				t.splits[j-1][r] = k
			}
		}
	}

	// Pass 4: cut row blocks and count occupancy.
	for lo := 0; lo < n; lo += tileRows {
		hi := lo + tileRows
		if hi > n {
			hi = n
		}
		t.tiles = append(t.tiles, tileHeader{rowLo: int32(lo), rowHi: int32(hi)})
	}
	t.partials = NewVecPool(len(t.tiles))
	t.lanePartials = NewVecPool(Lanes * len(t.tiles))
	for r := 0; r < n; r++ {
		if t.rowPtr[r+1] > t.rowPtr[r] {
			t.occupiedRow++
		}
	}

	// Dangling columns: permuted ids kept in ascending original order so
	// the sequential mass gather matches the reference bit for bit.
	if len(s.dangling) > 0 {
		t.dangling = make([]int32, len(s.dangling))
		for i, c := range s.dangling {
			t.dangling[i] = perm[c]
		}
	}
	return t
}

// N returns the matrix dimension.
func (t *TiledStochastic) N() int { return t.rows }

// NNZ returns the number of stored entries.
func (t *TiledStochastic) NNZ() int { return t.nnz }

// Perm returns the relabeling this layout was compiled under (old → new).
// Callers must treat it as read-only.
func (t *TiledStochastic) Perm() []int32 { return t.perm }

// LayoutStats describes the compiled layout for telemetry and benches.
type LayoutStats struct {
	Rows      int     // matrix dimension
	NNZ       int     // stored entries
	Tiles     int     // row blocks
	Windows   int     // 64Ki column windows (W−1 split planes)
	Occupancy float64 // fraction of rows holding at least one entry
	// BytesPerNNZ is the layout's total footprint (values, column words,
	// row pointers, window splits, tile headers) divided by nnz — the
	// bytes the kernel must move per nonzero. The CSR baseline is 12
	// bytes/nnz of val+colIdx plus 4 bytes/row of rowPtr; the tiled
	// layout stores values once per column, leaving ~2 bytes of column
	// word per entry.
	BytesPerNNZ float64
	IndexBytes  int64 // column words + row pointers + splits + tile headers
	ValueBytes  int64 // colVal: one float64 per column
	TotalBytes  int64
}

// Stats computes the layout statistics.
func (t *TiledStochastic) Stats() LayoutStats {
	const tileHeaderBytes = 8 // 2×int32
	idx := int64(len(t.cols))*2 + int64(len(t.rowPtr))*4 + int64(len(t.tiles))*tileHeaderBytes
	for _, sp := range t.splits {
		idx += int64(len(sp)) * 4
	}
	vals := int64(len(t.colVal)) * 8
	total := idx + vals
	st := LayoutStats{
		Rows:       t.rows,
		NNZ:        t.nnz,
		Tiles:      len(t.tiles),
		Windows:    t.windows,
		IndexBytes: idx,
		ValueBytes: vals,
		TotalBytes: total,
	}
	if t.rows > 0 {
		st.Occupancy = float64(t.occupiedRow) / float64(t.rows)
	}
	if t.nnz > 0 {
		st.BytesPerNNZ = float64(total) / float64(t.nnz)
	}
	return st
}

// Step computes next = α·S·x + β·att + γ·rec in one tiled pass and
// returns the L1 residual Σ|next[i] − x[i]|. All vectors are in the
// layout's storage (permuted) space. Each tile sums its rows' residual
// in row order and the per-tile partials are tree-summed in tile order,
// so the residual — like every score — depends on the layout alone.
// parts only caps how many pool tasks claim tiles; with parts ≤ 1 the
// pass runs on the calling goroutine. next must not alias x. Safe for
// concurrent use with distinct next/x.
func (t *TiledStochastic) Step(next, x, att, rec []float64, alpha, beta, gamma float64, parts int) float64 {
	// Dangling mass first, sequentially, in ascending original-column
	// order (see the accumulation-order note on the type).
	hasDangling := len(t.dangling) > 0
	share := 0.0
	if hasDangling {
		mass := 0.0
		for _, c := range t.dangling {
			mass += x[c]
		}
		share = mass / float64(t.rows)
	}
	// Fold the per-column value into the iterate once: y[c] =
	// colVal[c]·x[c] (see Values on the type).
	y := t.scratch.Get()
	defer t.scratch.Put(y)
	cv := t.colVal
	for i, xi := range x[:len(cv)] {
		y[i] = cv[i] * xi
	}
	partial := t.partials.Get()
	defer t.partials.Put(partial)
	if parts <= 1 || t.pool == nil {
		for ti := range partial {
			partial[ti] = t.stepTile(ti, next, x, y, att, rec, alpha, beta, gamma, share, hasDangling)
		}
		return treeSum(partial)
	}
	// Even a single task goes through the pool, so a caller that asked
	// for parallelism always exercises the workers (small graphs collapse
	// to one tile, and the pool-lifecycle tests rely on parallel ranks
	// scheduling them).
	var claimed atomic.Int64
	t.pool.Run(min(parts, len(partial)), func(int) {
		for ti := int(claimed.Add(1) - 1); ti < len(partial); ti = int(claimed.Add(1) - 1) {
			partial[ti] = t.stepTile(ti, next, x, y, att, rec, alpha, beta, gamma, share, hasDangling)
		}
	})
	return treeSum(partial)
}

// treeSum reduces the per-tile partials by pairwise halving in tile
// order — one fixed summation tree per layout.
func treeSum(p []float64) float64 {
	switch len(p) {
	case 0:
		return 0
	case 1:
		return p[0]
	}
	mid := len(p) / 2
	return treeSum(p[:mid]) + treeSum(p[mid:])
}

// stepTile is the kernel over one tile: the fused update of its rows
// plus their L1 residual, summed in row order, its arithmetic mirroring
// the serial reference (CSC MulVec + combine loop) expression for
// expression so scores stay bit-identical. y is the premultiplied
// iterate. Layouts under 64Ki rows run stepTileSmall and two-window
// layouts stepTileW2; the loop below is the generic body for three or
// more windows (corpora over 131,072 papers).
func (t *TiledStochastic) stepTile(ti int, next, x, y, att, rec []float64, alpha, beta, gamma, share float64, hasDangling bool) float64 {
	h := t.tiles[ti]
	if t.rows < windowSize {
		return t.stepTileSmall(h, next, x, y, att, rec, alpha, beta, gamma, share, hasDangling)
	}
	if t.windows == 2 {
		return t.stepTileW2(h, next, x, y, att, rec, alpha, beta, gamma, share, hasDangling)
	}
	resid := 0.0
	rowPtr, colw := t.rowPtr, t.cols
	for r := int(h.rowLo); r < int(h.rowHi); r++ {
		k := int(rowPtr[r])
		end := int(rowPtr[r+1])
		s := 0.0
		for j := 0; j < len(t.wbase); j++ {
			segEnd := end
			if j < len(t.splits) {
				segEnd = int(t.splits[j][r])
			}
			if segEnd > k {
				// A fixed-length 64Ki view of y: the uint16 word
				// indexes it with the bounds check compiled away.
				yw := y[t.wbase[j]:]
				yw = yw[:windowSize:windowSize]
				cs := colw[k:segEnd]
				for _, c := range cs {
					s += yw[c]
				}
				k = segEnd
			}
		}
		if hasDangling {
			s += share
		}
		v := alpha*s + beta*att[r] + gamma*rec[r]
		next[r] = v
		d := v - x[r]
		if d < 0 {
			d = -d
		}
		resid += d
	}
	return resid
}

// stepTileW2 is the two-window specialization — the common shape for
// corpora between 64Ki and 128Ki papers (the benchmark's 100k network).
// The window views of y and the single split plane hoist out of the row
// loop, so each row runs two back-to-back bounds-check-free gather-add
// loops with nothing rebuilt in between.
func (t *TiledStochastic) stepTileW2(h tileHeader, next, x, y, att, rec []float64, alpha, beta, gamma, share float64, hasDangling bool) float64 {
	resid := 0.0
	rowPtr, colw := t.rowPtr, t.cols
	yw0 := y[t.wbase[0]:]
	yw0 = yw0[:windowSize:windowSize]
	yw1 := y[t.wbase[1]:]
	yw1 = yw1[:windowSize:windowSize]
	split := t.splits[0]
	for r := int(h.rowLo); r < int(h.rowHi); r++ {
		a, m, b := rowPtr[r], split[r], rowPtr[r+1]
		s := 0.0
		for _, c := range colw[a:m] {
			s += yw0[c]
		}
		for _, c := range colw[m:b] {
			s += yw1[c]
		}
		if hasDangling {
			s += share
		}
		v := alpha*s + beta*att[r] + gamma*rec[r]
		next[r] = v
		d := v - x[r]
		if d < 0 {
			d = -d
		}
		resid += d
	}
	return resid
}

// stepTileSmall is the single-window path for matrices under 64Ki rows:
// no split planes, column words are absolute storage ids.
func (t *TiledStochastic) stepTileSmall(h tileHeader, next, x, y, att, rec []float64, alpha, beta, gamma, share float64, hasDangling bool) float64 {
	resid := 0.0
	rowPtr, colw := t.rowPtr, t.cols
	for r := int(h.rowLo); r < int(h.rowHi); r++ {
		a, b := rowPtr[r], rowPtr[r+1]
		s := 0.0
		for _, c := range colw[a:b] {
			s += y[c]
		}
		if hasDangling {
			s += share
		}
		v := alpha*s + beta*att[r] + gamma*rec[r]
		next[r] = v
		d := v - x[r]
		if d < 0 {
			d = -d
		}
		resid += d
	}
	return resid
}

// Lanes is the number of iterates StepLanes carries through one pass.
const Lanes = 4

// LaneSet is one StepLanes pass's per-lane coefficients. A lane that is
// not Live is frozen: its iterate is left as it is and its residual
// reads 0. Padding lanes of a group smaller than Lanes are frozen lanes.
type LaneSet struct {
	Alpha, Beta, Gamma [Lanes]float64
	Live               [Lanes]bool
}

// StepLanes is Step for Lanes iterates at once, sharing one pass over
// the column words. x holds the iterates interleaved — x[Lanes·i+l] is
// lane l's entry i — and every live lane is updated in place: a row's
// new value depends on the other rows only through the premultiplied
// y, so row r may overwrite x[r] once its residual term is taken. y is
// a caller-owned n-entry scratch block, overwritten with the
// premultiplied iterates; its array entries let the gather index a
// column's four lanes with one bounds check, or none through a window
// view. att and rec are shared by every lane.
//
// Each lane repeats Step's arithmetic for its own coefficients in
// Step's order — dangling mass in ascending original-column order, the
// premultiply by colVal, the row gather-add in entry order, the α/β/γ
// combine, per-tile residual partials tree-summed in tile order — so
// lane l's iterate and residual are bit-identical to Step on that lane
// alone, at every window count and every parts.
func (t *TiledStochastic) StepLanes(x []float64, y [][Lanes]float64, att, rec []float64, ls *LaneSet, parts int) [Lanes]float64 {
	n := t.rows
	x, y = x[:Lanes*n], y[:n]
	hasDangling := len(t.dangling) > 0
	var share [Lanes]float64
	if hasDangling {
		var mass [Lanes]float64
		for _, c := range t.dangling {
			xc := (*[Lanes]float64)(x[Lanes*int(c):])
			for l := range mass {
				mass[l] += xc[l]
			}
		}
		for l := range share {
			share[l] = mass[l] / float64(n)
		}
	}
	for i, v := range t.colVal {
		xi := (*[Lanes]float64)(x[Lanes*i:])
		yi := &y[i]
		yi[0] = v * xi[0]
		yi[1] = v * xi[1]
		yi[2] = v * xi[2]
		yi[3] = v * xi[3]
	}
	tiles := len(t.tiles)
	partial := t.lanePartials.Get()
	defer t.lanePartials.Put(partial)
	if parts <= 1 || t.pool == nil {
		for ti := 0; ti < tiles; ti++ {
			t.laneTile(ti, partial, x, y, att, rec, ls, &share, hasDangling)
		}
	} else {
		var claimed atomic.Int64
		sh := share // the tasks' copy, so the inline path keeps share on the stack
		t.pool.Run(min(parts, tiles), func(int) {
			for ti := int(claimed.Add(1) - 1); ti < tiles; ti = int(claimed.Add(1) - 1) {
				t.laneTile(ti, partial, x, y, att, rec, ls, &sh, hasDangling)
			}
		})
	}
	var resid [Lanes]float64
	for l := range resid {
		if ls.Live[l] {
			resid[l] = treeSum(partial[l*tiles : (l+1)*tiles])
		}
	}
	return resid
}

// laneTile runs StepLanes over tile ti and stores each lane's residual
// in partial[l·tiles+ti].
func (t *TiledStochastic) laneTile(ti int, partial, x []float64, y [][Lanes]float64, att, rec []float64, ls *LaneSet, share *[Lanes]float64, hasDangling bool) {
	var resid [Lanes]float64
	if t.rows < windowSize {
		resid = t.laneTileSmall(t.tiles[ti], x, y, att, rec, ls, share, hasDangling)
	} else {
		resid = t.laneTileWide(t.tiles[ti], x, y, att, rec, ls, share, hasDangling)
	}
	for l, v := range resid {
		partial[l*len(t.tiles)+ti] = v
	}
}

// update finishes lane l of row r, whose gathered sum (dangling share
// included) is s and whose attention and recency are a and b: if the
// lane is live, apply its α/β/γ exactly as stepTile does, add
// |new − old| to its residual and store the new value in xr, row r's
// interleaved iterate. math.Abs is branch-free where stepTile's
// `if d < 0` mispredicts on about half the rows; the two differ only on
// −0, which adds nothing to a residual that starts at +0, so the bits
// agree.
func (ls *LaneSet) update(l int, s, a, b float64, xr, resid *[Lanes]float64) {
	if !ls.Live[l] {
		return
	}
	v := ls.Alpha[l]*s + ls.Beta[l]*a + ls.Gamma[l]*b
	resid[l] += math.Abs(v - xr[l])
	xr[l] = v
}

// laneTileSmall is StepLanes over one tile of a single-window layout
// (stepTileSmall's shape): column words are absolute storage ids. Each
// tile body spells out a row's tail — the dangling share, then update
// per lane — as Step's bodies spell out their combine: a shared helper
// is too big to inline, and a call per row cost 13% of a pass on the
// sweep benchmark's split.
func (t *TiledStochastic) laneTileSmall(h tileHeader, x []float64, y [][Lanes]float64, att, rec []float64, ls *LaneSet, share *[Lanes]float64, hasDangling bool) [Lanes]float64 {
	var resid [Lanes]float64
	rowPtr, colw := t.rowPtr, t.cols
	for r := int(h.rowLo); r < int(h.rowHi); r++ {
		var s0, s1, s2, s3 float64
		for _, c := range colw[rowPtr[r]:rowPtr[r+1]] {
			yc := &y[c]
			s0 += yc[0]
			s1 += yc[1]
			s2 += yc[2]
			s3 += yc[3]
		}
		if hasDangling {
			s0 += share[0]
			s1 += share[1]
			s2 += share[2]
			s3 += share[3]
		}
		xr := (*[Lanes]float64)(x[Lanes*r:])
		a, b := att[r], rec[r]
		ls.update(0, s0, a, b, xr, &resid)
		ls.update(1, s1, a, b, xr, &resid)
		ls.update(2, s2, a, b, xr, &resid)
		ls.update(3, s3, a, b, xr, &resid)
	}
	return resid
}

// laneTileWide is StepLanes over one tile of a layout with two or more
// windows (stepTile's generic shape): each row gathers its window runs
// in window order through fixed-length 64Ki views of y. Step keeps a
// two-window body (stepTileW2) because serving ranks 100k corpora; the
// lane step's one end-to-end workload, the sweep, ranks a one-window
// split.
func (t *TiledStochastic) laneTileWide(h tileHeader, x []float64, y [][Lanes]float64, att, rec []float64, ls *LaneSet, share *[Lanes]float64, hasDangling bool) [Lanes]float64 {
	var resid [Lanes]float64
	rowPtr, colw := t.rowPtr, t.cols
	for r := int(h.rowLo); r < int(h.rowHi); r++ {
		k := int(rowPtr[r])
		end := int(rowPtr[r+1])
		var s0, s1, s2, s3 float64
		for j := range t.wbase {
			segEnd := end
			if j < len(t.splits) {
				segEnd = int(t.splits[j][r])
			}
			yw := y[t.wbase[j]:]
			yw = yw[:windowSize:windowSize]
			for _, c := range colw[k:segEnd] {
				yc := &yw[c]
				s0 += yc[0]
				s1 += yc[1]
				s2 += yc[2]
				s3 += yc[3]
			}
			k = segEnd
		}
		if hasDangling {
			s0 += share[0]
			s1 += share[1]
			s2 += share[2]
			s3 += share[3]
		}
		xr := (*[Lanes]float64)(x[Lanes*r:])
		a, b := att[r], rec[r]
		ls.update(0, s0, a, b, xr, &resid)
		ls.update(1, s1, a, b, xr, &resid)
		ls.update(2, s2, a, b, xr, &resid)
		ls.update(3, s3, a, b, xr, &resid)
	}
	return resid
}
