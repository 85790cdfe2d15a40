package sparse

import (
	"cmp"
	"slices"
	"sort"
)

// RCMOrder computes a reverse Cuthill–McKee ordering of an undirected
// graph: a breadth-first renumbering started from low-degree peripheral
// vertices, with each frontier visited in ascending-degree order, then
// reversed. On citation networks it concentrates each paper's neighbors
// into a narrow index band. Production compile does not run it: the
// tiled kernel's speed comes from DegreeOrder's degree runs, not from
// bandwidth, so core compiles with DegreeOrder(nil); the benchmark's
// kernel replay still passes an RCM rank to DegreeOrder.
//
// deg[i] must be the neighbor count of vertex i and adj(i, fn) must call
// fn once per neighbor of i (duplicates and self-loops are tolerated:
// visited vertices are skipped). The caller supplies adjacency as a
// callback so this package stays independent of the graph representation
// — graph.Network's Degree and Neighbors give the citation network's
// symmetrized refs + citers lists.
//
// The returned permutation maps old vertex ids to new: perm[old] = new.
// It is a bijection on [0, n) and deterministic for fixed inputs.
func RCMOrder(n int, deg []int32, adj func(int32, func(int32))) []int32 {
	perm := make([]int32, n)
	if n == 0 {
		return perm
	}
	// byDegree lists all vertices in ascending (degree, id) order; BFS
	// roots are taken from it so every component starts at a minimum-
	// degree vertex, the classic pseudo-peripheral heuristic.
	byDegree := make([]int32, n)
	for i := range byDegree {
		byDegree[i] = int32(i)
	}
	sort.Slice(byDegree, func(a, b int) bool {
		da, db := deg[byDegree[a]], deg[byDegree[b]]
		if da != db {
			return da < db
		}
		return byDegree[a] < byDegree[b]
	})

	visited := make([]bool, n)
	order := make([]int32, 0, n)
	scratch := make([]int32, 0, 64) // per-vertex neighbor buffer
	rootCursor := 0
	for len(order) < n {
		// Next unvisited root in (degree, id) order.
		for visited[byDegree[rootCursor]] {
			rootCursor++
		}
		root := byDegree[rootCursor]
		visited[root] = true
		order = append(order, root)
		// Standard BFS over the component; the queue is the tail of
		// `order` itself.
		for head := len(order) - 1; head < len(order); head++ {
			v := order[head]
			scratch = scratch[:0]
			adj(v, func(u int32) {
				if !visited[u] {
					visited[u] = true
					scratch = append(scratch, u)
				}
			})
			// Frontier in ascending (degree, id) order — the Cuthill–McKee
			// tie-break that keeps the band tight.
			sort.Slice(scratch, func(a, b int) bool {
				da, db := deg[scratch[a]], deg[scratch[b]]
				if da != db {
					return da < db
				}
				return scratch[a] < scratch[b]
			})
			order = append(order, scratch...)
		}
	}
	// Reverse: RCM numbers the BFS order back to front.
	for newID, old := range order {
		perm[old] = int32(n - 1 - newID)
	}
	return perm
}

// DegreeOrder computes the production relabeling for the tiled layout:
// within each 64Ki column window, rows are ordered lexicographically by
// their per-column-window entry counts (ascending), with ties broken by
// rank (nil means original id) and then by original id. The result is
// window-preserving by construction, so TiledRows accepts it directly.
//
// Why degree runs and not bandwidth: the tiled kernel runs one short
// dependent-add chain per row per column window, so its throughput is
// set by how well the core overlaps consecutive rows — and the limiter
// there is each gather loop's exit branch, which mispredicts on every
// row when trip counts vary, flushing the speculation that overlap
// depends on. A row's per-window entry counts are fixed by the ORIGINAL
// column ids (row relabeling cannot change them), so sorting rows by
// that count vector lines up long runs of identical trip counts and the
// exit branches become perfectly predictable; measured on the 100k
// benchmark graph this cuts the gather loop's ns/nnz by more than 2×,
// where pure bandwidth-minimizing orders (RCM alone) barely move it — a
// power-law hub row spans the whole window under any ordering.
// Production passes nil: any window-preserving order gives the same
// scores bit for bit, and original ids already keep each equal-count
// run in publication order.
//
// The sort is a stable LSD counting sort: each window's rows start in
// (rank, id) order and are then stably counting-sorted by their entry
// count in the last column window, then the one before, down to the
// first, which yields exactly the lexicographic order above in
// O(w·(rows + max count)) per window instead of a comparison sort.
func (s *Stochastic) DegreeOrder(rank []int32) []int32 {
	m := s.m
	n := m.rows
	w := (n + windowSize - 1) / windowSize
	if w < 1 {
		w = 1
	}
	// cnt[r*w+j] = entries of row r whose original column is in window j.
	cnt := make([]int32, n*w)
	maxCnt := int32(0)
	for c := 0; c < m.cols; c++ {
		j := c >> WindowBits
		for k := m.colPtr[c]; k < m.colPtr[c+1]; k++ {
			i := int(m.rowIdx[k])*w + j
			cnt[i]++
			if cnt[i] > maxCnt {
				maxCnt = cnt[i]
			}
		}
	}
	perm := make([]int32, n)
	idx := make([]int32, 0, windowSize)
	tmp := make([]int32, windowSize)
	hist := make([]int32, maxCnt+2)
	for lo := 0; lo < n; lo += windowSize {
		hi := lo + windowSize
		if hi > n {
			hi = n
		}
		idx = idx[:0]
		for i := lo; i < hi; i++ {
			idx = append(idx, int32(i))
		}
		if rank != nil {
			slices.SortFunc(idx, func(a, b int32) int {
				if c := cmp.Compare(rank[a], rank[b]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		}
		src, dst := idx, tmp[:len(idx)]
		for j := w - 1; j >= 0; j-- {
			clear(hist)
			for _, r := range src {
				hist[cnt[int(r)*w+j]+1]++
			}
			for v := 1; v < len(hist); v++ {
				hist[v] += hist[v-1]
			}
			for _, r := range src {
				key := cnt[int(r)*w+j]
				dst[hist[key]] = r
				hist[key]++
			}
			src, dst = dst, src
		}
		for k, i := range src {
			perm[i] = int32(lo + k)
		}
	}
	return perm
}

// IdentityPerm returns the identity permutation of size n, the layout
// used when relabeling is disabled or not yet computed.
func IdentityPerm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// InversePerm returns the inverse of a permutation: inv[perm[i]] = i.
func InversePerm(perm []int32) []int32 {
	inv := make([]int32, len(perm))
	for old, new := range perm {
		inv[new] = int32(old)
	}
	return inv
}

// Bandwidth returns the maximum |perm[r] − perm[c]| over the nonzero
// pattern of m — the band the relabeled gathers span. Diagnostic for
// tests and layout telemetry; O(nnz).
func Bandwidth(m *Matrix, perm []int32) int {
	max := 0
	for c := 0; c < m.cols; c++ {
		pc := int(perm[c])
		for k := m.colPtr[c]; k < m.colPtr[c+1]; k++ {
			d := int(perm[m.rowIdx[k]]) - pc
			if d < 0 {
				d = -d
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}
