package sparse

import (
	"fmt"
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
// Entries are stored row-major in one flat val array; within a row they
// are ordered by ascending ORIGINAL column id, which segments them into
// runs per column window (window = original id >> WindowBits; the
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
// Permutation contract. perm must be window-preserving: perm[i] >> 16 ==
// i >> 16 for every i (WindowAlign projects an arbitrary ordering onto
// this family). Relabeling therefore reorders rows and columns freely
// WITHIN each 64Ki window but never across windows. That constraint is
// what keeps the kernel bit-exact, as follows.
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
// val·x[col] is bitwise the value the identity layout reads (a permuted
// vector is a copy, not an arithmetic transform), so every score in
// permuted space equals the identity-layout score of the corresponding
// original row, bit for bit. The dangling-mass gather is kept in
// ascending original-column order for the same reason. The L1 residual
// is summed per tile in row order and the tile partials are tree-reduced
// in tile order, so it too is fixed by the layout, whatever the worker
// count. It differs from the serial reference's one sequential sum in
// its final ulps; the residual is a stopping criterion, not an output.
type TiledStochastic struct {
	rows    int
	nnz     int
	windows int     // W = ⌈rows/64Ki⌉ column windows
	rowPtr  []int32 // permuted-row entry pointers, len rows+1
	splits  [][]int32
	// Column-stochastic matrices built by normalization have ONE value
	// per column (1/out-degree), so the uniform layout stores it once in
	// colVal (indexed by storage column id) instead of 8 bytes per entry:
	// the kernel precomputes y[c] = colVal[c]·x[c] once per step and the
	// per-entry work collapses to a gather-add of y. Each product is the
	// same two bit patterns multiplied, so every addend — and hence every
	// score — is bit-identical to the per-entry form. val is retained only
	// when some column carries non-identical values (weighted or
	// duplicate-edge inputs), which routes through the fallback kernel.
	uniform  bool
	colVal   []float64 // uniform: per-storage-column value, len rows
	val      []float64 // fallback only: per-entry values
	cols     []uint16  // one window-local word per entry
	wbase    []int32   // len W: x-offset of each window view
	tiles    []tileHeader
	dangling []int32 // permuted dangling columns, ascending ORIGINAL order
	perm     []int32 // old → new (shared, read-only; identity if nil given)
	pool     *Pool

	scratch  *VecPool // len-rows vectors, the per-step y buffer
	partials *VecPool // len-tiles vectors, the per-step residual partials

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
// window-preserving (see the type comment); WindowAlign projects any
// ordering onto that family.
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
			panic(fmt.Sprintf("sparse: Tiled permutation is not window-preserving: perm[%d] = %d crosses a %d-id window (use WindowAlign)", i, p, windowSize))
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
		scratch: NewVecPool(n),
	}
	// Probe for the uniform-column property (every entry of a column
	// bitwise equal — true by construction for 1/out-degree
	// normalization). Uniform columns compress values to one float64 per
	// column; anything else keeps the per-entry array and the fallback
	// kernel.
	t.uniform = true
probe:
	for c := 0; c < m.cols; c++ {
		lo, hi := m.colPtr[c], m.colPtr[c+1]
		for k := lo + 1; k < hi; k++ {
			if m.val[k] != m.val[lo] {
				t.uniform = false
				break probe
			}
		}
	}
	if t.uniform {
		t.colVal = make([]float64, n)
		for c := 0; c < m.cols; c++ {
			if lo := m.colPtr[c]; lo < m.colPtr[c+1] {
				t.colVal[perm[c]] = m.val[lo]
			}
		}
	} else {
		t.val = make([]float64, len(m.val))
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

	// Pass 2: scatter values and window-local column words. Walking the
	// CSC columns ascending fills every row's entries in ascending
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
			if t.val != nil {
				t.val[pos] = m.val[k]
			}
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

// WindowAlign projects an arbitrary ordering onto the window-preserving
// family the tiled layout accepts: within each 64Ki block of original
// ids, rows are ranked by their position in perm; across blocks nothing
// moves. The result relabels freely inside every window (what the cache
// cares about) while keeping the per-row accumulation order — and hence
// every score bit — independent of the ordering it was given.
func WindowAlign(perm []int32) []int32 {
	n := len(perm)
	out := make([]int32, n)
	var block []windowRank
	for lo := 0; lo < n; lo += windowSize {
		hi := lo + windowSize
		if hi > n {
			hi = n
		}
		block = block[:0]
		for i := lo; i < hi; i++ {
			block = append(block, windowRank{perm[i], int32(i)})
		}
		sortBlock(block)
		for rank, p := range block {
			out[p.id] = int32(lo + rank)
		}
	}
	return out
}

type windowRank struct{ rank, id int32 }

// sortBlock sorts by rank ascending (ids are distinct so ranks are too).
func sortBlock(b []windowRank) {
	// Blocks are ≤ 64Ki entries; pdq via the standard library would pull
	// in sort for a struct slice — a hand-rolled quicksort keeps this
	// dependency-free and allocation-free.
	for len(b) > 12 {
		p := b[len(b)/2].rank
		i, j := 0, len(b)-1
		for i <= j {
			for b[i].rank < p {
				i++
			}
			for b[j].rank > p {
				j--
			}
			if i <= j {
				b[i], b[j] = b[j], b[i]
				i++
				j--
			}
		}
		if j+1 < len(b)-i {
			sortBlock(b[:j+1])
			b = b[i:]
		} else {
			sortBlock(b[i:])
			b = b[:j+1]
		}
	}
	for i := 1; i < len(b); i++ {
		for k := i; k > 0 && b[k].rank < b[k-1].rank; k-- {
			b[k], b[k-1] = b[k-1], b[k]
		}
	}
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
	// bytes the kernel must move per nonzero and the number the tentpole
	// attacks. The CSR baseline is 12 bytes/nnz of val+colIdx plus 4
	// bytes/row of rowPtr; the uniform tiled layout stores values once
	// per column, leaving ~2 bytes of column word per entry.
	BytesPerNNZ float64
	IndexBytes  int64 // column words + row pointers + splits + tile headers
	ValueBytes  int64 // colVal (uniform) or per-entry val (fallback)
	TotalBytes  int64
}

// Stats computes the layout statistics.
func (t *TiledStochastic) Stats() LayoutStats {
	const tileHeaderBytes = 8 // 2×int32
	idx := int64(len(t.cols))*2 + int64(len(t.rowPtr))*4 + int64(len(t.tiles))*tileHeaderBytes
	for _, sp := range t.splits {
		idx += int64(len(sp)) * 4
	}
	vals := (int64(len(t.val)) + int64(len(t.colVal))) * 8
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
	// On the uniform layout, fold the per-column value into the iterate
	// once: y[c] = colVal[c]·x[c]. Every per-entry product val·x[col] the
	// reference computes is the identical multiplication of the identical
	// bit patterns, so gathering y preserves every addend bitwise while
	// the hot loop stops streaming 8 bytes of value per entry.
	var y []float64
	if t.uniform {
		y = t.scratch.Get()
		cv := t.colVal
		for i, xi := range x[:len(cv)] {
			y[i] = cv[i] * xi
		}
		defer t.scratch.Put(y)
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
// iterate (uniform layouts only; nil routes to the per-entry fallback).
func (t *TiledStochastic) stepTile(ti int, next, x, y, att, rec []float64, alpha, beta, gamma, share float64, hasDangling bool) float64 {
	h := t.tiles[ti]
	if !t.uniform {
		return t.stepTileVal(h, next, x, att, rec, alpha, beta, gamma, share, hasDangling)
	}
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

// stepTileVal is the fallback kernel for non-uniform (weighted or
// duplicate-edge) matrices: per-entry values, any window count. It keeps
// the same canonical accumulation order, just without the premultiplied
// iterate.
func (t *TiledStochastic) stepTileVal(h tileHeader, next, x, att, rec []float64, alpha, beta, gamma, share float64, hasDangling bool) float64 {
	resid := 0.0
	rowPtr, vals, colw := t.rowPtr, t.val, t.cols
	if t.rows < windowSize {
		// Single window narrower than 64Ki: words are absolute ids.
		for r := int(h.rowLo); r < int(h.rowHi); r++ {
			a, b := rowPtr[r], rowPtr[r+1]
			vs := vals[a:b]
			cs := colw[a:b]
			s := 0.0
			for e := range vs {
				s += vs[e] * x[cs[e]]
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
				xw := x[t.wbase[j]:]
				xw = xw[:windowSize:windowSize]
				vs := vals[k:segEnd]
				cs := colw[k:segEnd]
				for e := range vs {
					s += vs[e] * xw[cs[e]]
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
