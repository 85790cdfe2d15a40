package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// powerLawStochastic builds a column-stochastic matrix whose in-degree
// distribution is heavily skewed (a few rows receive most of the entries)
// and whose tail columns are dangling — the shape of a citation network.
func powerLawStochastic(t testing.TB, seed int64, n, nnz int) *Stochastic {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Coord, 0, nnz)
	for i := 0; i < nnz; i++ {
		// Quadratic preference: row ~ n·u² concentrates entries on low rows.
		u := rng.Float64()
		row := int32(float64(n) * u * u)
		if int(row) >= n {
			row = int32(n - 1)
		}
		// Only the first 2/3 of the columns cite; the rest stay dangling.
		col := int32(rng.Intn(2*n/3 + 1))
		entries = append(entries, Coord{Row: row, Col: col, Val: 1})
	}
	m, err := NewMatrix(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewColumnStochastic(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// referenceStep is the serial three-sweep iteration the tiled kernel must
// reproduce bit-for-bit: CSC SpMV with uniform dangling redistribution,
// dense combine, then a separate L1 residual pass.
func referenceStep(s *Stochastic, next, x, att, rec []float64, alpha, beta, gamma float64) float64 {
	s.MulVec(next, x)
	for i := range next {
		next[i] = alpha*next[i] + beta*att[i] + gamma*rec[i]
	}
	return L1Diff(next, x)
}

func randomVectors(rng *rand.Rand, n int) (x, att, rec []float64) {
	x = make([]float64, n)
	att = make([]float64, n)
	rec = make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Float64()
		att[i] = rng.Float64()
		rec[i] = rng.Float64()
	}
	Normalize(x)
	Normalize(att)
	Normalize(rec)
	return x, att, rec
}

func mustStochastic(t testing.TB, m *Matrix) *Stochastic {
	t.Helper()
	s, err := NewColumnStochastic(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// emptySquare returns an n×n matrix with no entries: every column dangling.
func emptySquare(t testing.TB, n int) *Matrix {
	t.Helper()
	m, err := NewMatrix(n, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomPerm returns a uniformly random permutation of [0, n).
func randomPerm(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

// permuteF64 returns dst with dst[perm[i]] = src[i].
func permuteF64(src []float64, perm []int32) []float64 {
	dst := make([]float64, len(src))
	for i, v := range src {
		dst[perm[i]] = v
	}
	return dst
}

// tileOrderResid is the exact residual oracle of an identity-layout
// Step: each tile's |want−x| summed row by row, then the tile sums
// tree-reduced in tile order.
func tileOrderResid(ti *TiledStochastic, want, x []float64) float64 {
	sums := make([]float64, len(ti.tiles))
	for k, h := range ti.tiles {
		for r := h.rowLo; r < h.rowHi; r++ {
			sums[k] += math.Abs(want[r] - x[r])
		}
	}
	return treeSum(sums)
}

// TestTiledStepBitIdenticalAtIdentity pins the compressed layout against
// the reference at the identity relabeling: scores bit-identical to the
// serial CSC step, and the residual exactly the tile-order sum, for every
// worker count. Small tile heights force multi-tile layouts even on
// these tiny matrices.
func TestTiledStepBitIdenticalAtIdentity(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, tc := range []struct {
		name string
		s    *Stochastic
	}{
		{"random", mustStochastic(t, randomMatrix(t, 31, 120, 700))},
		{"power-law-dangling", powerLawStochastic(t, 32, 150, 900)},
		{"all-dangling", mustStochastic(t, emptySquare(t, 40))},
	} {
		for _, tileRows := range []int{DefaultTileRows, 16, 1} {
			s := tc.s
			n := s.N()
			rng := rand.New(rand.NewSource(44))
			x, att, rec := randomVectors(rng, n)
			want := make([]float64, n)
			wantResid := referenceStep(s, want, x, att, rec, 0.5, 0.3, 0.2)

			ti := s.TiledRows(pool, nil, tileRows)
			if ti.N() != n || ti.NNZ() != s.m.NNZ() {
				t.Fatalf("%s/h=%d: N/NNZ = %d/%d, want %d/%d",
					tc.name, tileRows, ti.N(), ti.NNZ(), n, s.m.NNZ())
			}
			tileResid := tileOrderResid(ti, want, x)
			for _, parts := range []int{1, 2, 3, 7, 16, n + 5} {
				got := make([]float64, n)
				resid := ti.Step(got, x, att, rec, 0.5, 0.3, 0.2, parts)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/h=%d parts=%d: next[%d] = %v, want %v (not bit-identical)",
							tc.name, tileRows, parts, i, got[i], want[i])
					}
				}
				if resid != tileResid {
					t.Fatalf("%s/h=%d parts=%d: resid = %v, want exactly %v",
						tc.name, tileRows, parts, resid, tileResid)
				}
				if math.Abs(resid-wantResid) > 1e-12*(1+math.Abs(wantResid)) {
					t.Fatalf("%s/h=%d parts=%d: resid = %v, want ≈ %v",
						tc.name, tileRows, parts, resid, wantResid)
				}
			}
		}
	}
}

// TestTiledRelabelingInvariance is the metamorphic suite of the tentpole:
// compile the same matrix under random relabelings, feed the permuted
// kernel permuted inputs, and demand that un-permuting the output returns
// the identity layout's bits exactly — the canonical accumulation order
// makes the scores permutation-invariant, not merely close.
func TestTiledRelabelingInvariance(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, tc := range []struct {
		name string
		s    *Stochastic
	}{
		{"random", mustStochastic(t, randomMatrix(t, 51, 140, 800))},
		{"power-law-dangling", powerLawStochastic(t, 52, 160, 1000)},
		{"all-dangling", mustStochastic(t, emptySquare(t, 33))},
	} {
		s := tc.s
		n := s.N()
		rng := rand.New(rand.NewSource(66))
		x, att, rec := randomVectors(rng, n)
		id := s.TiledRows(pool, nil, 16)
		want := make([]float64, n)
		wantResid := id.Step(want, x, att, rec, 0.5, 0.3, 0.2, 1)

		// Three random relabelings plus full reversal.
		perms := [][]int32{}
		for k := 0; k < 3; k++ {
			perms = append(perms, randomPerm(rng, n))
		}
		rev := make([]int32, n)
		for i := range rev {
			rev[i] = int32(n - 1 - i)
		}
		perms = append(perms, rev)

		for pi, perm := range perms {
			tp := s.TiledRows(pool, perm, 16)
			if &tp.Perm()[0] != &perm[0] {
				t.Fatalf("%s/perm%d: Perm() does not expose the compiled relabeling", tc.name, pi)
			}
			xp := permuteF64(x, perm)
			attP := permuteF64(att, perm)
			recP := permuteF64(rec, perm)
			for _, parts := range []int{1, 3, 7} {
				got := make([]float64, n)
				resid := tp.Step(got, xp, attP, recP, 0.5, 0.3, 0.2, parts)
				for i := range want {
					if got[perm[i]] != want[i] {
						t.Fatalf("%s/perm%d parts=%d: score of original row %d = %v, want %v (not bit-identical)",
							tc.name, pi, parts, i, got[perm[i]], want[i])
					}
				}
				// The residual sums the same |d| values in a different row
				// order, so it is ulp-close, not bit-equal, across layouts.
				if math.Abs(resid-wantResid) > 1e-12*(1+math.Abs(wantResid)) {
					t.Fatalf("%s/perm%d parts=%d: resid = %v, want ≈ %v",
						tc.name, pi, parts, resid, wantResid)
				}
			}
		}
	}
}

// TestTiledTwoWindows forces the multi-window path: a 70k-node matrix
// needs two 64Ki column windows, so rows whose entries straddle the
// window boundary carry a split point and the kernel walks two window
// runs per row. Scores must match the serial reference bit for bit,
// under identity and window-aligned random relabelings alike, the
// residual must be exactly the tile-order sum at every worker count,
// and a cross-window permutation must be rejected.
func TestTiledTwoWindows(t *testing.T) {
	const n = 70000
	entries := []Coord{
		{Row: 5, Col: 0, Val: 1},
		{Row: 5, Col: n - 1, Val: 1}, // row 5 straddles both windows
		{Row: 9, Col: 1, Val: 2},
		{Row: 9, Col: n - 2, Val: 1},
		{Row: 2100, Col: 7, Val: 1}, // second tile, window 0 only
		{Row: 2101, Col: 9, Val: 3},
		{Row: 69000, Col: 68000, Val: 2}, // window 1 only
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 400; i++ {
		entries = append(entries, Coord{
			Row: int32(rng.Intn(64)), Col: int32(rng.Intn(n)), Val: 1,
		})
	}
	s := mustStochastic(t, mustMatrix2(t, n, n, entries))

	pool := NewPool(4)
	defer pool.Close()
	ti := s.Tiled(pool, nil)
	st := ti.Stats()
	if st.Windows != 2 {
		t.Fatalf("layout has %d windows, want 2 for n=%d", st.Windows, n)
	}

	x, att, rec := randomVectors(rng, n)
	want := make([]float64, n)
	wantResid := referenceStep(s, want, x, att, rec, 0.5, 0.3, 0.2)
	tileResid := tileOrderResid(ti, want, x)
	for _, parts := range []int{1, 2, 3, 7, 16, n + 5} {
		got := make([]float64, n)
		resid := ti.Step(got, x, att, rec, 0.5, 0.3, 0.2, parts)
		if resid != tileResid {
			t.Fatalf("multi-window parts=%d: resid = %v, want exactly %v", parts, resid, tileResid)
		}
		if math.Abs(resid-wantResid) > 1e-12*(1+math.Abs(wantResid)) {
			t.Fatalf("multi-window parts=%d: resid = %v, want ≈ %v", parts, resid, wantResid)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("multi-window parts=%d: next[%d] = %v, want %v", parts, i, got[i], want[i])
			}
		}
	}

	// Relabeled within windows: WindowAlign projects a fully random
	// ordering onto the window-preserving family the layout accepts.
	perm := WindowAlign(randomPerm(rng, n))
	tp := s.Tiled(nil, perm)
	xp := permuteF64(x, perm)
	attP := permuteF64(att, perm)
	recP := permuteF64(rec, perm)
	gotP := make([]float64, n)
	tp.Step(gotP, xp, attP, recP, 0.5, 0.3, 0.2, 1)
	for i := range want {
		if gotP[perm[i]] != want[i] {
			t.Fatalf("relabeled multi-window score of row %d not bit-identical", i)
		}
	}

	// A permutation that moves ids across the 64Ki boundary violates the
	// layout contract and must be refused loudly.
	bad := IdentityPerm(n)
	bad[0], bad[n-1] = bad[n-1], bad[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("cross-window permutation did not panic")
			}
		}()
		s.Tiled(nil, bad)
	}()
}

// mustMatrix2 is mustMatrix for testing.TB (the wide-tile test builds a
// large matrix and also serves benchmarks).
func mustMatrix2(t testing.TB, rows, cols int, entries []Coord) *Matrix {
	t.Helper()
	m, err := NewMatrix(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWindowAlign pins the projection onto the window-preserving
// permutation family: below 64Ki ids it is the identity transform (any
// permutation is already window-preserving there), above it the result
// keeps every id in its original window while preserving the given
// ordering's relative ranks inside each window.
func TestWindowAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(5))

	// Small n: a single window — WindowAlign must return the permutation
	// unchanged (ranks of a permutation of [0,n) are the values
	// themselves).
	small := randomPerm(rng, 1000)
	aligned := WindowAlign(small)
	for i := range small {
		if aligned[i] != small[i] {
			t.Fatalf("n=1000: WindowAlign changed perm[%d] from %d to %d", i, small[i], aligned[i])
		}
	}

	// Large n: a fully random ordering projects to a bijection that never
	// crosses its 64Ki window and orders each window by the given ranks.
	const n = 150000 // three windows, the last one partial
	p := WindowAlign(randomPerm(rng, n))
	seen := make([]bool, n)
	for i, v := range p {
		if v < 0 || int(v) >= n || seen[v] {
			t.Fatalf("WindowAlign result is not a bijection at %d", i)
		}
		seen[v] = true
		if v>>16 != int32(i)>>16 {
			t.Fatalf("WindowAlign moved id %d into window %d", i, v>>16)
		}
	}

	// Rank preservation inside a window: reversal must reverse each
	// window internally.
	rev := make([]int32, n)
	for i := range rev {
		rev[i] = int32(n - 1 - i)
	}
	ar := WindowAlign(rev)
	for i := 0; i < 65536; i++ {
		if want := int32(65535 - i); ar[i] != want {
			t.Fatalf("aligned reversal: ar[%d] = %d, want %d", i, ar[i], want)
		}
	}
	lo := (n >> 16) << 16 // partial tail window reverses onto [lo, n)
	for i := lo; i < n; i++ {
		if want := int32(lo + n - 1 - i); ar[i] != want {
			t.Fatalf("aligned reversal tail: ar[%d] = %d, want %d", i, ar[i], want)
		}
	}
	if len(WindowAlign(nil)) != 0 {
		t.Fatal("WindowAlign(nil) not empty")
	}
}

// TestTiledStatsCompression pins the satellite telemetry: the compressed
// layout must beat the 12 bytes/nnz CSR floor on a narrow-tile graph, and
// the stats must be internally consistent.
func TestTiledStatsCompression(t *testing.T) {
	s := powerLawStochastic(t, 91, 300, 2000)
	ti := s.Tiled(nil, nil)
	st := ti.Stats()
	if st.Rows != 300 || st.NNZ != s.m.NNZ() {
		t.Fatalf("stats rows/nnz = %d/%d, want %d/%d", st.Rows, st.NNZ, 300, s.m.NNZ())
	}
	if st.Tiles != 1 || st.Windows != 1 {
		t.Fatalf("300 rows compiled to %d tiles / %d windows, want 1/1", st.Tiles, st.Windows)
	}
	if st.Occupancy <= 0 || st.Occupancy > 1 {
		t.Fatalf("occupancy %v out of (0,1]", st.Occupancy)
	}
	if st.BytesPerNNZ >= 12 {
		t.Fatalf("bytes/nnz = %v, want < 12 (the uncompressed CSR floor)", st.BytesPerNNZ)
	}
	if st.TotalBytes != st.IndexBytes+st.ValueBytes {
		t.Fatalf("total %d != index %d + values %d", st.TotalBytes, st.IndexBytes, st.ValueBytes)
	}
}

// TestTiledValueCompression pins the uniform-column value compression:
// an unweighted citation matrix (every column normalized to 1/out-degree)
// stores one value per column, a weighted matrix falls back to per-entry
// values, and both reproduce the serial reference bit for bit.
func TestTiledValueCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 140

	// Unweighted: distinct coords, Val 1 → uniform columns.
	var uent []Coord
	for c := 0; c < n; c++ {
		for _, r := range rng.Perm(n)[:rng.Intn(6)] {
			uent = append(uent, Coord{Row: int32(r), Col: int32(c), Val: 1})
		}
	}
	um, err := NewMatrix(n, n, uent)
	if err != nil {
		t.Fatal(err)
	}
	uniform := mustStochastic(t, um)

	// Weighted: same pattern, random weights → per-entry fallback.
	went := make([]Coord, len(uent))
	copy(went, uent)
	for i := range went {
		went[i].Val = 0.25 + rng.Float64()
	}
	wm, err := NewMatrix(n, n, went)
	if err != nil {
		t.Fatal(err)
	}
	weighted := mustStochastic(t, wm)

	for _, tc := range []struct {
		name        string
		s           *Stochastic
		wantUniform bool
	}{{"uniform", uniform, true}, {"weighted", weighted, false}} {
		ti := tc.s.TiledRows(nil, randomPerm(rng, n), 16)
		if ti.uniform != tc.wantUniform {
			t.Fatalf("%s: uniform = %v, want %v", tc.name, ti.uniform, tc.wantUniform)
		}
		st := ti.Stats()
		if tc.wantUniform {
			if st.ValueBytes != int64(n)*8 {
				t.Fatalf("uniform: value bytes = %d, want one float64 per column (%d)", st.ValueBytes, n*8)
			}
		} else if st.ValueBytes != int64(st.NNZ)*8 {
			t.Fatalf("weighted: value bytes = %d, want one float64 per entry (%d)", st.ValueBytes, st.NNZ*8)
		}
		x, att, rec := randomVectors(rng, n)
		want := make([]float64, n)
		referenceStep(tc.s, want, x, att, rec, 0.5, 0.3, 0.2)
		perm := ti.Perm()
		got := make([]float64, n)
		ti.Step(got, permuteF64(x, perm), permuteF64(att, perm), permuteF64(rec, perm), 0.5, 0.3, 0.2, 1)
		for i := range want {
			if got[perm[i]] != want[i] {
				t.Fatalf("%s: score of original row %d = %v, want %v (not bit-identical)",
					tc.name, i, got[perm[i]], want[i])
			}
		}
	}
}

// TestTiledStepAllocs pins the steady-state allocation cost of one
// tiled power-iteration step. On the calling goroutine (parts=1) a step
// allocates nothing: the uniform layout's premultiplied iterate cycles
// through the layout's VecPool. Through the worker pool (parts=2) the
// dispatch costs a fixed handful — the task closure, its tile counter
// and the WaitGroup — independent of the matrix size.
func TestTiledStepAllocs(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	// Unweighted citations with distinct coordinates normalize to uniform
	// columns; the last third of the columns stays dangling.
	const n = 3000
	var cites []Coord
	for c := 0; c < 2*n/3; c++ {
		for j := 0; j <= c%5; j++ {
			cites = append(cites, Coord{Row: int32((c*7919 + j*97) % n), Col: int32(c), Val: 1})
		}
	}
	um, err := NewMatrix(n, n, cites)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		s           *Stochastic
		wantUniform bool
	}{
		{"uniform", mustStochastic(t, um), true},
		{"weighted", mustStochastic(t, randomMatrix(t, 92, n, 15000)), false},
	} {
		ti := tc.s.TiledRows(pool, nil, 16)
		if ti.uniform != tc.wantUniform {
			t.Fatalf("%s: uniform = %v, want %v", tc.name, ti.uniform, tc.wantUniform)
		}
		x, att, rec := randomVectors(rand.New(rand.NewSource(93)), n)
		next := make([]float64, n)
		for _, c := range []struct{ parts, max int }{{1, 0}, {2, 3}} {
			step := func() { ti.Step(next, x, att, rec, 0.5, 0.3, 0.2, c.parts) }
			step() // warm the y and partials pools
			if got := testing.AllocsPerRun(50, step); got > float64(c.max) {
				t.Fatalf("%s parts=%d: %.1f allocs/step, want ≤ %d", tc.name, c.parts, got, c.max)
			}
		}
	}
}
