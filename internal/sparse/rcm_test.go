package sparse

import (
	"math/rand"
	"sort"
	"testing"
)

// adjFromMatrix builds the symmetrized adjacency callback and degree
// array RCMOrder expects from a sparse matrix's nonzero pattern.
func adjFromMatrix(m *Matrix) (deg []int32, adj func(int32, func(int32))) {
	n := m.Rows()
	lists := make([][]int32, n)
	for c := 0; c < m.cols; c++ {
		for k := m.colPtr[c]; k < m.colPtr[c+1]; k++ {
			r := m.rowIdx[k]
			lists[c] = append(lists[c], r)
			lists[r] = append(lists[r], int32(c))
		}
	}
	deg = make([]int32, n)
	for i := range lists {
		deg[i] = int32(len(lists[i]))
	}
	return deg, func(i int32, fn func(int32)) {
		for _, j := range lists[i] {
			fn(j)
		}
	}
}

// TestRCMOrderIsPermutation: the ordering must be a bijection on [0, n)
// for connected, disconnected, and edgeless graphs, and deterministic.
func TestRCMOrderIsPermutation(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *Matrix
	}{
		{"random", randomMatrix(t, 41, 150, 600)},
		{"edgeless", emptySquare(t, 25)},
		{"power-law", powerLawStochastic(t, 42, 120, 500).m},
	} {
		deg, adj := adjFromMatrix(tc.m)
		n := tc.m.Rows()
		perm := RCMOrder(n, deg, adj)
		if len(perm) != n {
			t.Fatalf("%s: perm has %d entries, want %d", tc.name, len(perm), n)
		}
		seen := make([]bool, n)
		for old, p := range perm {
			if p < 0 || int(p) >= n || seen[p] {
				t.Fatalf("%s: perm[%d] = %d is not a bijection", tc.name, old, p)
			}
			seen[p] = true
		}
		again := RCMOrder(n, deg, adj)
		for i := range perm {
			if perm[i] != again[i] {
				t.Fatalf("%s: ordering not deterministic at %d", tc.name, i)
			}
		}
		inv := InversePerm(perm)
		for i := range perm {
			if inv[perm[i]] != int32(i) {
				t.Fatalf("%s: InversePerm broken at %d", tc.name, i)
			}
		}
	}
	if p := RCMOrder(0, nil, nil); len(p) != 0 {
		t.Fatalf("n=0: perm %v, want empty", p)
	}
}

// TestRCMOrderReducesBandwidth: a path graph under a random shuffle has
// near-maximal bandwidth; RCM must recover an ordering whose bandwidth is
// a small constant — the property the tiled kernel's cache residency
// rests on.
func TestRCMOrderReducesBandwidth(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(17))
	shuffle := randomPerm(rng, n)
	// Path i—i+1 with vertex labels scrambled by shuffle.
	var entries []Coord
	for i := 0; i+1 < n; i++ {
		entries = append(entries, Coord{Row: shuffle[i], Col: shuffle[i+1], Val: 1})
	}
	m := mustMatrix2(t, n, n, entries)

	shuffled := Bandwidth(m, IdentityPerm(n))
	deg, adj := adjFromMatrix(m)
	perm := RCMOrder(n, deg, adj)
	rcm := Bandwidth(m, perm)
	if rcm > 2 {
		t.Fatalf("RCM bandwidth %d on a path, want ≤ 2", rcm)
	}
	if shuffled < 10*rcm {
		t.Fatalf("shuffled bandwidth %d unexpectedly small (rcm %d); test graph broken", shuffled, rcm)
	}
}

// TestIdentityPerm covers the trivial layout used when relabeling is
// disabled.
func TestIdentityPerm(t *testing.T) {
	p := IdentityPerm(5)
	for i, v := range p {
		if v != int32(i) {
			t.Fatalf("IdentityPerm[%d] = %d", i, v)
		}
	}
	if b := Bandwidth(mustMatrix2(t, 3, 3, []Coord{{Row: 2, Col: 0, Val: 1}}), p[:3]); b != 2 {
		t.Fatalf("Bandwidth = %d, want 2", b)
	}
}

// TestDegreeOrder pins the production relabeling contract: the result is
// a window-preserving bijection that sorts rows within each 64Ki window
// lexicographically by per-column-window entry counts, breaking ties by
// the supplied rank.
func TestDegreeOrder(t *testing.T) {
	// Small single-window case with known counts: row r holds r%4 entries.
	n := 12
	var entries []Coord
	for r := 0; r < n; r++ {
		for k := 0; k < r%4; k++ {
			entries = append(entries, Coord{Row: int32(r), Col: int32((r + k + 1) % n), Val: 1})
		}
	}
	s := mustStochastic(t, mustMatrix2(t, n, n, entries))

	perm := s.DegreeOrder(nil)
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			t.Fatalf("DegreeOrder not a bijection: %v", perm)
		}
		seen[p] = true
	}
	count := make([]int, n)
	for _, e := range entries {
		count[e.Row]++
	}
	inv := InversePerm(perm)
	for k := 1; k < n; k++ {
		a, b := inv[k-1], inv[k]
		if count[a] > count[b] {
			t.Fatalf("rows not sorted by entry count: storage %d (row %d, %d entries) before storage %d (row %d, %d entries)",
				k-1, a, count[a], k, b, count[b])
		}
		if count[a] == count[b] && a > b {
			t.Fatalf("equal-count tie not broken by id: row %d before row %d", a, b)
		}
	}

	// Rank tie-break: reversed ranks must reverse each equal-count run.
	rank := make([]int32, n)
	for i := range rank {
		rank[i] = int32(n - i)
	}
	rperm := s.DegreeOrder(rank)
	rinv := InversePerm(rperm)
	for k := 1; k < n; k++ {
		a, b := rinv[k-1], rinv[k]
		if count[a] == count[b] && rank[a] > rank[b] {
			t.Fatalf("equal-count tie not broken by rank: row %d (rank %d) before row %d (rank %d)",
				a, rank[a], b, rank[b])
		}
	}

	// Two-window case: the result must be window-preserving and usable by
	// TiledRows directly.
	big := 70000
	rng := rand.New(rand.NewSource(13))
	var bent []Coord
	for i := 0; i < 8000; i++ {
		bent = append(bent, Coord{Row: int32(rng.Intn(big)), Col: int32(rng.Intn(big)), Val: 1})
	}
	bs := mustStochastic(t, mustMatrix2(t, big, big, bent))
	bperm := bs.DegreeOrder(nil)
	for i, p := range bperm {
		if p>>WindowBits != int32(i)>>WindowBits {
			t.Fatalf("DegreeOrder crosses a window: perm[%d] = %d", i, p)
		}
	}
	bs.Tiled(nil, bperm) // must not panic
}

// degreeOrderReference is the comparison sort DegreeOrder's counting
// sort replaced, kept as the reference its permutation must equal.
func degreeOrderReference(s *Stochastic, rank []int32) []int32 {
	m := s.m
	n := m.rows
	w := (n + windowSize - 1) / windowSize
	if w < 1 {
		w = 1
	}
	cnt := make([]int32, n*w)
	for c := 0; c < m.cols; c++ {
		j := c >> WindowBits
		for k := m.colPtr[c]; k < m.colPtr[c+1]; k++ {
			cnt[int(m.rowIdx[k])*w+j]++
		}
	}
	perm := make([]int32, n)
	for lo := 0; lo < n; lo += windowSize {
		hi := lo + windowSize
		if hi > n {
			hi = n
		}
		var idx []int32
		for i := lo; i < hi; i++ {
			idx = append(idx, int32(i))
		}
		sort.Slice(idx, func(a, b int) bool {
			ia, ib := idx[a], idx[b]
			ca, cb := cnt[int(ia)*w:int(ia)*w+w], cnt[int(ib)*w:int(ib)*w+w]
			for j := 0; j < w; j++ {
				if ca[j] != cb[j] {
					return ca[j] < cb[j]
				}
			}
			if rank != nil && rank[ia] != rank[ib] {
				return rank[ia] < rank[ib]
			}
			return ia < ib
		})
		for k, i := range idx {
			perm[i] = int32(lo + k)
		}
	}
	return perm
}

// TestDegreeOrderMatchesComparator: the counting sort must give the
// comparison sort's permutation exactly, with rank nil (production) and
// with an RCM rank, on one window and across two (n > 64Ki).
func TestDegreeOrderMatchesComparator(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *Matrix
	}{
		{"empty", emptySquare(t, 9)},
		{"power-law", powerLawStochastic(t, 5, 3000, 20000).m},
		// Columns span both windows, so count vectors differ in their
		// second component too.
		{"two-window", randomMatrix(t, 6, windowSize+4500, 300000)},
	} {
		s := mustStochastic(t, tc.m)
		deg, adj := adjFromMatrix(tc.m)
		rcm := RCMOrder(tc.m.Rows(), deg, adj)
		for _, rank := range [][]int32{nil, rcm} {
			got, want := s.DegreeOrder(rank), degreeOrderReference(s, rank)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s (rank set %v): perm[%d] = %d, comparator gives %d",
						tc.name, rank != nil, i, got[i], want[i])
				}
			}
		}
	}
}
