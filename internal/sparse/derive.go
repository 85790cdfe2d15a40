package sparse

import (
	"cmp"
	"slices"
	"sort"
)

// DeriveTiled returns the layout s.TiledRows(pool, s.DegreeOrder(nil),
// tileRows) would compile, where tileRows is prev's tile height, without
// compiling it: it carries prev, the layout of base under
// base.DegreeOrder(nil), over to s in O(n + nnz) sequential work plus a
// sort of the changed rows. The result is equal to the compiled layout
// field for field, so it ranks to the same bits and stops at the same
// iteration.
//
// s must extend base: both are pattern forms (NewCitationStochastic),
// and every entry of base is one of s's — the shape of a citation
// network grown by graph.NewBuilderFrom, whose old papers keep their
// indices and whose old citations all stay. DeriveTiled checks that in
// one sequential pass (the columns that did not grow are compared run
// by run, the others merged) and returns nil, so that the caller
// compiles from scratch, when it does not hold, when either matrix is
// not a pattern form, when base is empty or prev is not base's size, or
// when s has another window count. The layout depends on the matrix
// alone, so nothing else about the networks needs checking.
//
// What it does. The rows whose per-window entry counts changed — the
// targets of added entries — and the new rows leave prev's degree-run
// order, are sorted by (count vector, id) and merged back in, window by
// window. That fixes the new relabeling, and with it an old → new
// storage table. Words of unchanged rows cannot be copied verbatim: a
// row that moves inside its window shifts the storage ids between its
// old and new place, and the second window's base, n − 64Ki, moves
// with every new row. So every word is remapped through a per-window
// 64Ki table, changed rows are rebuilt by merging their old entries
// with the added ones in original column order, and the per-column
// values and the dangling list are remapped, with 1/k for the columns
// that grew or are new.
func (s *Stochastic) DeriveTiled(pool *Pool, base *Stochastic, prev *TiledStochastic) *TiledStochastic {
	m, bm := s.m, base.m
	n, n0 := m.rows, bm.rows
	if m.val != nil || bm.val != nil || n0 == 0 || prev.rows != n0 || n < n0 || windows(n) != prev.windows {
		return nil
	}
	w := prev.windows

	// The added entries as (row, column), and the old columns that grew:
	// those where the offset between the two column pointer arrays
	// steps. Runs of columns that did not grow are compared in one piece
	// each.
	type entry struct{ row, col int32 }
	var added []entry
	var grown []int32
	run, shift := 0, int32(0) // columns [run, c) have not grown; m's pointers lead by shift
	same := func(c int) bool {
		lo, hi := bm.colPtr[run], bm.colPtr[c]
		return slices.Equal(bm.rowIdx[lo:hi], m.rowIdx[lo+shift:hi+shift])
	}
	for c := 0; c < n0; c++ {
		if m.colPtr[c+1]-bm.colPtr[c+1] == shift {
			continue
		}
		if !same(c) {
			return nil
		}
		refs := m.rowIdx[m.colPtr[c]:m.colPtr[c+1]]
		old := bm.rowIdx[bm.colPtr[c]:bm.colPtr[c+1]]
		i := 0
		for _, r := range refs {
			if i < len(old) && old[i] == r {
				i++
			} else {
				added = append(added, entry{r, int32(c)})
			}
		}
		if i < len(old) || len(refs) == len(old) {
			return nil
		}
		grown = append(grown, int32(c))
		run, shift = c+1, m.colPtr[c+1]-bm.colPtr[c+1]
	}
	if !same(n0) {
		return nil
	}
	for c := n0; c < n; c++ {
		for _, r := range m.rowIdx[m.colPtr[c]:m.colPtr[c+1]] {
			added = append(added, entry{r, int32(c)})
		}
	}
	// By row; each row's entries stay in ascending column order.
	slices.SortStableFunc(added, func(a, b entry) int { return cmp.Compare(a.row, b.row) })

	// The changed rows, ascending — the old rows that gained entries,
	// then the new rows — with their new count vectors and their added
	// entries (added[aPtr[i]:aPtr[i+1]] for ch[i]). changed is their
	// bitmap.
	var ch []int32
	changed := make([]uint64, (n+63)/64)
	for _, e := range added {
		if e.row < int32(n0) && (len(ch) == 0 || ch[len(ch)-1] != e.row) {
			ch = append(ch, e.row)
			changed[e.row>>6] |= 1 << (e.row & 63)
		}
	}
	for r := int32(n0); r < int32(n); r++ {
		ch = append(ch, r)
		changed[r>>6] |= 1 << (r & 63)
	}
	ccnt := make([]int32, len(ch)*w)
	aPtr := make([]int32, len(ch)+1)
	k := 0
	for i, r := range ch {
		row := ccnt[i*w : i*w+w]
		if int(r) < n0 {
			sr := int(prev.perm[r])
			for j := range row {
				lo, hi := prev.segment(sr, j)
				row[j] = hi - lo
			}
		}
		for ; k < len(added) && added[k].row == r; k++ {
			row[added[k].col>>WindowBits]++
		}
		aPtr[i+1] = int32(k)
	}

	// The new degree-run order, window by window: prev's order of the
	// unchanged rows with the sorted changed rows merged in. prev's
	// order is sorted by (old count vector, id), and an unchanged row's
	// count vector did not change, so each changed row goes in where a
	// binary search over prev's order puts it. Placing a row fixes its
	// new storage id: perm, move (prev storage id → new) and from (new
	// storage id → prev storage id, or −1−i for changed row ch[i]).
	invPrev := make([]int32, n0)
	for r, sr := range prev.perm {
		invPrev[sr] = int32(r)
	}
	perm, move, from := make([]int32, n), make([]int32, n0), make([]int32, n)
	// before reports whether changed row ch[i] precedes the row at prev
	// storage id sr, by its count vector in prev.
	before := func(i int, sr int) bool {
		for j, a := range ccnt[i*w : i*w+w] {
			lo, hi := prev.segment(sr, j)
			if a != hi-lo {
				return a < hi-lo
			}
		}
		return ch[i] < invPrev[sr]
	}
	var pending []int
	next := 0 // ch[next:] are in windows not yet ordered
	for lo := 0; lo < n; lo += windowSize {
		hi, end := min(lo+windowSize, n), min(lo+windowSize, n0)
		pending = pending[:0]
		for ; next < len(ch) && int(ch[next]) < hi; next++ {
			pending = append(pending, next)
		}
		slices.SortFunc(pending, func(a, b int) int {
			if c := slices.Compare(ccnt[a*w:a*w+w], ccnt[b*w:b*w+w]); c != 0 {
				return c
			}
			return cmp.Compare(ch[a], ch[b])
		})
		pos := int32(lo)
		// placeOld places the unchanged rows of prev storage [a, b).
		placeOld := func(a, b int) {
			for sr := a; sr < b; sr++ {
				if r := invPrev[sr]; changed[r>>6]&(1<<(r&63)) == 0 {
					perm[r], move[sr], from[pos] = pos, pos, int32(sr)
					pos++
				}
			}
		}
		at := lo // prev storage [lo, at) is placed
		for _, i := range pending {
			k := at + sort.Search(end-at, func(k int) bool { return before(i, at+k) })
			placeOld(at, k)
			r := ch[i]
			perm[r], from[pos] = pos, int32(-1-i)
			if int(r) < n0 {
				move[prev.perm[r]] = pos
			}
			pos++
			at = k
		}
		placeOld(at, end)
	}

	t := newTiled(pool, perm, prev.tileRows, m.NNZ())

	// The word table move induces per window: remap[j][old word] = new
	// word.
	remap := make([]*[windowSize]uint16, w)
	for j := range remap {
		remap[j] = new([windowSize]uint16)
		for sr := j << WindowBits; sr < min((j+1)<<WindowBits, n0); sr++ {
			remap[j][sr-int(prev.wbase[j])] = uint16(move[sr] - t.wbase[j])
		}
	}

	// Row pointers, split points, column words and values, row by row
	// in the new storage order.
	at := int32(0)
	rowPtr, cols, colVal := t.rowPtr[:n+1], t.cols, t.colVal[:n]
	prevRowPtr, prevCols, prevColVal := prev.rowPtr, prev.cols, prev.colVal
	tabLast := remap[w-1]
	for nr, f := range from {
		rowPtr[nr] = at
		if f >= 0 {
			// An unchanged row: prev's words, remapped window by window.
			lo, hi := prevRowPtr[f], prevRowPtr[f+1]
			d := at - lo // prev.cols[k] goes to t.cols[k+d]
			a := lo
			for j, sp := range prev.splits {
				b := sp[f]
				t.splits[j][nr] = b + d
				remapWords(cols[a+d:b+d], prevCols[a:b], remap[j])
				a = b
			}
			remapWords(cols[a+d:hi+d], prevCols[a:hi], tabLast)
			colVal[nr] = prevColVal[f]
			at += hi - lo
			continue
		}
		// A changed row: its old entries, decoded to original columns,
		// merged with the added ones in ascending column order.
		i := int(-1 - f)
		row := ccnt[i*w : i*w+w]
		for j := 1; j < w; j++ {
			at += row[j-1]
			t.splits[j-1][nr] = at
		}
		at += row[w-1]
		out := cols[rowPtr[nr]:at]
		add := added[aPtr[i]:aPtr[i+1]]
		o := 0
		emit := func(c int32) {
			pc := perm[c]
			out[o] = uint16(pc - t.wbase[pc>>WindowBits])
			o++
		}
		if r := ch[i]; int(r) < n0 {
			sr := int(prev.perm[r])
			colVal[nr] = prevColVal[sr]
			for j := range w {
				lo, hi := prev.segment(sr, j)
				for _, word := range prev.cols[lo:hi] {
					c := invPrev[int32(word)+prev.wbase[j]]
					for len(add) > 0 && add[0].col < c {
						emit(add[0].col)
						add = add[1:]
					}
					emit(c)
				}
			}
		}
		for _, e := range add {
			emit(e.col)
		}
	}
	t.rowPtr[n] = at

	// 1/k for the columns that grew or are new.
	for _, c := range grown {
		t.colVal[perm[c]] = s.colValue(int(c))
	}
	for c := n0; c < n; c++ {
		t.colVal[perm[c]] = s.colValue(c)
	}

	// Dangling columns in ascending original order: prev's that still
	// are, then the new ones (whose ids follow every old one).
	for _, sr := range prev.dangling {
		if c := invPrev[sr]; m.colPtr[c] == m.colPtr[c+1] {
			t.dangling = append(t.dangling, move[sr])
		}
	}
	for c := n0; c < n; c++ {
		if m.colPtr[c] == m.colPtr[c+1] {
			t.dangling = append(t.dangling, perm[c])
		}
	}
	t.finish()
	return t
}

// segment returns the entry range [lo, hi) of storage row r's window-j
// run.
func (t *TiledStochastic) segment(r, j int) (lo, hi int32) {
	lo, hi = t.rowPtr[r], t.rowPtr[r+1]
	if j > 0 {
		lo = t.splits[j-1][r]
	}
	if j < len(t.splits) {
		hi = t.splits[j][r]
	}
	return lo, hi
}

// remapWords sets dst[k] = tab[src[k]].
func remapWords(dst, src []uint16, tab *[windowSize]uint16) {
	dst = dst[:len(src)]
	for k, c := range src {
		dst[k] = tab[c]
	}
}
