package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// powerLawStochastic builds a 0/1 citation matrix, normalized, whose
// in-degree distribution is heavily skewed (a few rows receive most of
// the entries) and whose tail columns are dangling — the shape of a
// citation network.
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
	return citationStochastic(t, m)
}

// citationStochastic normalizes m's nonzero pattern as a 0/1 citation
// matrix: every entry becomes 1 (NewMatrix sums duplicate coordinates and
// randomMatrix draws random values), so each column of the result holds
// one value, 1/out-degree — the only matrices the tiled layout accepts.
func citationStochastic(t testing.TB, m *Matrix) *Stochastic {
	t.Helper()
	ones := make([]float64, len(m.val))
	for k := range ones {
		ones[k] = 1
	}
	c, err := FromCSC(m.rows, m.cols, m.colPtr, m.rowIdx, ones)
	if err != nil {
		t.Fatal(err)
	}
	return mustStochastic(t, c)
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

// TestTiledStepBitIdenticalAtIdentity pins the single-window kernel
// (stepTileSmall) against the reference at the identity relabeling:
// scores bit-identical to the serial CSC step, and the residual exactly
// the tile-order sum, for every worker count. Small tile heights force
// multi-tile layouts even on these tiny matrices.
func TestTiledStepBitIdenticalAtIdentity(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, tc := range []struct {
		name string
		s    *Stochastic
	}{
		{"random", citationStochastic(t, randomMatrix(t, 31, 120, 700))},
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
		{"random", citationStochastic(t, randomMatrix(t, 51, 140, 800))},
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

// TestTiledTwoWindows forces the multi-window kernels: 70k rows need two
// 64Ki column windows (stepTileW2) and 150k rows need three (the generic
// stepTile body, the only kernel for corpora over 131,072 papers). Rows
// whose entries straddle window boundaries carry split points, and dense
// rows run one gather loop per window. Scores must match the serial
// reference bit for bit under the identity and under DegreeOrder (the
// production relabeling), the residual must be exactly the tile-order
// sum at every worker count, and a cross-window permutation must be
// rejected.
func TestTiledTwoWindows(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, tc := range []struct{ n, windows int }{{70000, 2}, {150000, 3}} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			n := tc.n
			rng := rand.New(rand.NewSource(71))
			s := windowedStochastic(t, rng, n)

			x, att, rec := randomVectors(rng, n)
			want := make([]float64, n)
			wantResid := referenceStep(s, want, x, att, rec, 0.5, 0.3, 0.2)
			for _, o := range []struct {
				name string
				perm []int32
			}{{"identity", nil}, {"degree-order", s.DegreeOrder(nil)}} {
				tp := s.Tiled(pool, o.perm)
				if w := tp.Stats().Windows; w != tc.windows {
					t.Fatalf("%s: layout has %d windows, want %d", o.name, w, tc.windows)
				}
				perm := tp.Perm()
				xp := permuteF64(x, perm)
				attP := permuteF64(att, perm)
				recP := permuteF64(rec, perm)
				tileResid := tileOrderResid(tp, permuteF64(want, perm), xp)
				for _, parts := range []int{1, 2, 3, 7, 16, n + 5} {
					got := make([]float64, n)
					resid := tp.Step(got, xp, attP, recP, 0.5, 0.3, 0.2, parts)
					if resid != tileResid {
						t.Fatalf("%s parts=%d: resid = %v, want exactly %v", o.name, parts, resid, tileResid)
					}
					if math.Abs(resid-wantResid) > 1e-12*(1+math.Abs(wantResid)) {
						t.Fatalf("%s parts=%d: resid = %v, want ≈ %v", o.name, parts, resid, wantResid)
					}
					for i := range want {
						if got[perm[i]] != want[i] {
							t.Fatalf("%s parts=%d: score of original row %d = %v, want %v (not bit-identical)",
								o.name, parts, i, got[perm[i]], want[i])
						}
					}
				}
			}

			// A permutation that moves ids across the 64Ki boundary
			// violates the layout contract and must be refused loudly.
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
		})
	}
}

// windowedStochastic builds an n×n citation matrix whose rows straddle
// the 64Ki column windows: rows with entries in the first and last
// windows, a row with an entry in every window, a second-tile row in
// window 0 only, a last-window-only row, and 3000 random entries, half
// on 64 dense rows that span every window. Most columns stay dangling.
func windowedStochastic(t testing.TB, rng *rand.Rand, n int) *Stochastic {
	t.Helper()
	entries := []Coord{
		{Row: 5, Col: 0, Val: 1},
		{Row: 5, Col: int32(n - 1), Val: 1}, // first and last windows
		{Row: 9, Col: 1, Val: 1},
		{Row: 9, Col: windowSize, Val: 1}, // every window
		{Row: 9, Col: int32(n - 2), Val: 1},
		{Row: 2100, Col: 7, Val: 1},                          // second tile, window 0 only
		{Row: int32(n - 1000), Col: int32(n - 2000), Val: 1}, // last window only
	}
	for i := 0; i < 3000; i++ {
		row := rng.Intn(64)
		if i%2 == 1 {
			row = rng.Intn(n)
		}
		entries = append(entries, Coord{Row: int32(row), Col: int32(rng.Intn(n)), Val: 1})
	}
	return citationStochastic(t, mustMatrix2(t, n, n, entries))
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

// TestTiledValueCompression pins the one value layout: a 0/1 citation
// matrix normalized to 1/out-degree stores one value per column and
// reproduces the serial reference bit for bit under a random relabeling,
// while a weighted matrix, whose columns hold differing values, is
// refused at compile.
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
	s := mustStochastic(t, mustMatrix2(t, n, n, uent))
	ti := s.TiledRows(nil, randomPerm(rng, n), 16)
	if st := ti.Stats(); st.ValueBytes != int64(n)*8 {
		t.Fatalf("value bytes = %d, want one float64 per column (%d)", st.ValueBytes, n*8)
	}
	x, att, rec := randomVectors(rng, n)
	want := make([]float64, n)
	referenceStep(s, want, x, att, rec, 0.5, 0.3, 0.2)
	perm := ti.Perm()
	got := make([]float64, n)
	ti.Step(got, permuteF64(x, perm), permuteF64(att, perm), permuteF64(rec, perm), 0.5, 0.3, 0.2, 1)
	for i := range want {
		if got[perm[i]] != want[i] {
			t.Fatalf("score of original row %d = %v, want %v (not bit-identical)", i, got[perm[i]], want[i])
		}
	}

	// Weighted: same pattern, random weights → non-uniform columns.
	went := make([]Coord, len(uent))
	copy(went, uent)
	for i := range went {
		went[i].Val = 0.25 + rng.Float64()
	}
	weighted := mustStochastic(t, mustMatrix2(t, n, n, went))
	defer func() {
		if recover() == nil {
			t.Fatal("weighted matrix compiled without panicking")
		}
	}()
	weighted.TiledRows(nil, nil, 16)
}

// TestTiledStepAllocs pins the steady-state allocation cost of one
// tiled power-iteration step. On the calling goroutine (parts=1) a step
// allocates nothing: the premultiplied iterate cycles through the
// layout's VecPool. Through the worker pool (parts=2) the
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
		name string
		s    *Stochastic
	}{
		{"strided", mustStochastic(t, um)},
		{"random", citationStochastic(t, randomMatrix(t, 92, n, 15000))},
	} {
		ti := tc.s.TiledRows(pool, nil, 16)
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

// TestTiledStepLanesMatchesStep pins the lane step to Step. On layouts
// of one, two and three column windows under DegreeOrder, every one
// with dangling columns, four lanes with different α/β/γ step through
// three passes while lanes freeze one by one. After each pass a live
// lane's iterate and residual must == a Step of that lane alone; a
// frozen lane's iterate must be untouched and its residual 0. A second
// schedule runs two live lanes beside two padding lanes, which must stay
// zero. Both hold at every parts; y starts as NaN to show no pass reads
// a stale premultiplied value.
func TestTiledStepLanesMatchesStep(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(81))
	for _, tc := range []struct {
		name    string
		s       *Stochastic
		tile    int
		windows int
	}{
		{"windows=1", powerLawStochastic(t, 82, 3000, 20000), 256, 1},
		{"windows=2", windowedStochastic(t, rng, 70000), DefaultTileRows, 2},
		{"windows=3", windowedStochastic(t, rng, 150000), DefaultTileRows, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			n := s.N()
			ti := s.TiledRows(pool, s.DegreeOrder(nil), tc.tile)
			if st := ti.Stats(); st.Windows != tc.windows || st.Tiles < 2 || s.DanglingCount() == 0 {
				t.Fatalf("layout has %d windows, %d tiles, %d dangling columns; want %d windows, several tiles, some dangling",
					st.Windows, st.Tiles, s.DanglingCount(), tc.windows)
			}
			_, att, rec := randomVectors(rng, n)
			var start [Lanes][]float64
			for l := range start {
				start[l], _, _ = randomVectors(rng, n)
			}
			coef := LaneSet{
				Alpha: [Lanes]float64{0.5, 0.3, 0.15, 0.45},
				Beta:  [Lanes]float64{0.3, 0.6, 0, 0.1},
				Gamma: [Lanes]float64{0.2, 0.1, 0.85, 0.45},
			}
			schedules := []struct {
				name  string
				lanes int // lanes ≥ this are padding: zero iterate, zero coefficients
				live  [][Lanes]bool
			}{
				{"freezing", Lanes, [][Lanes]bool{{true, true, true, true}, {true, false, true, true}, {false, false, true, false}}},
				{"padding", 2, [][Lanes]bool{{true, true, false, false}, {true, true, false, false}}},
			}
			for _, sc := range schedules {
				ls := coef
				var want [Lanes][]float64
				for l := range want {
					want[l] = make([]float64, n)
					if l < sc.lanes {
						copy(want[l], start[l])
					} else {
						ls.Alpha[l], ls.Beta[l], ls.Gamma[l] = 0, 0, 0
					}
				}
				// The Step reference, pass by pass, once for every parts.
				var wantResid [][Lanes]float64
				var wantX [][Lanes][]float64
				for _, live := range sc.live {
					var resid [Lanes]float64
					for l := range want {
						if live[l] {
							next := make([]float64, n)
							resid[l] = ti.Step(next, want[l], att, rec, ls.Alpha[l], ls.Beta[l], ls.Gamma[l], 1)
							want[l] = next
						}
					}
					wantResid = append(wantResid, resid)
					wantX = append(wantX, want)
				}
				for _, parts := range []int{1, 2, 3, 7} {
					x := make([]float64, Lanes*n)
					for l := 0; l < sc.lanes; l++ {
						for i, v := range start[l] {
							x[Lanes*i+l] = v
						}
					}
					y := make([][Lanes]float64, n)
					for i := range y {
						y[i] = [Lanes]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
					}
					for pass, live := range sc.live {
						ls.Live = live
						resid := ti.StepLanes(x, y, att, rec, &ls, parts)
						if resid != wantResid[pass] {
							t.Fatalf("%s parts=%d pass %d: residuals %v, want exactly %v", sc.name, parts, pass, resid, wantResid[pass])
						}
						for l, w := range wantX[pass] {
							for i := range w {
								if x[Lanes*i+l] != w[i] {
									t.Fatalf("%s parts=%d pass %d lane %d (live %v): x[%d] = %v, want %v (not bit-identical)",
										sc.name, parts, pass, l, live[l], i, x[Lanes*i+l], w[i])
								}
							}
						}
					}
				}
			}

			// Inline, a lane pass allocates nothing, as Step does not.
			x, y := make([]float64, Lanes*n), make([][Lanes]float64, n)
			ls := coef
			ls.Live = [Lanes]bool{true, true, true, true}
			if got := testing.AllocsPerRun(5, func() { ti.StepLanes(x, y, att, rec, &ls, 1) }); got != 0 {
				t.Fatalf("%.1f allocs per inline lane pass, want 0", got)
			}
		})
	}
}
