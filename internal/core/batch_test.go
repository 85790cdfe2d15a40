package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// batchGrid builds a deliberately mixed parameter list: α = 0 fast-path
// cells, pure-attention (β = 1) and no-attention (β = 0) cells, a cell
// that cannot converge inside its iteration budget, warm-started cells,
// duplicate cells, and cells with different Workers settings.
func batchGrid(n int, warm []float64) []Params {
	ps := []Params{
		{Alpha: 0, Beta: 0.6, Gamma: 0.4, AttentionYears: 2, W: -0.2},
		{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2},
		{Alpha: 0.5, Beta: 0, Gamma: 0.5, W: -0.2},                                  // β = 0
		{Alpha: 0, Beta: 1, Gamma: 0, AttentionYears: 1, W: -0.2},                   // β = 1, α = 0
		{Alpha: 0.2, Beta: 0.8, Gamma: 0, AttentionYears: 1, W: -0.2},               // β close to 1 with iterations
		{Alpha: 0.4, Beta: 0.1, Gamma: 0.5, AttentionYears: 4, W: -0.4},             // distinct (y, w)
		{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2, MaxIter: 3}, // cannot converge
		{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2},             // duplicate of cell 1
		{Alpha: 0.3, Beta: 0.3, Gamma: 0.4, AttentionYears: 2, W: -0.2, Start: warm},
		{Alpha: 0.45, Beta: 0.25, Gamma: 0.3, AttentionYears: 2, W: -0.2, Tol: 1e-8},
		{Alpha: 0.1, Beta: 0.45, Gamma: 0.45, AttentionYears: 5, W: -0.2},
		{Alpha: 0.25, Beta: 0.5, Gamma: 0.25, AttentionYears: 3, W: -0.3, Start: warm},
	}
	// The mixed cells above run on the tiled kernel on one worker.
	for i := range ps {
		ps[i].Workers = 1
	}
	// Other worker counts: cells must still be bit-identical when
	// ranked with the parallel kernel at a fixed worker count.
	for _, w := range []int{2, -1} {
		p := Params{Alpha: 0.5, Beta: 0.2, Gamma: 0.3, AttentionYears: 2, W: -0.2, Workers: w}
		ps = append(ps, p)
	}
	// And one inline cell (Workers = 0): its scores must equal the serial
	// CSC reference's.
	ps = append(ps, Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2})
	return ps
}

// TestRankBatchBitIdenticalToRank pins the batched ranking contract:
// for every cell of a mixed grid, RankBatch returns exactly the bits
// op.Rank returns — scores, residuals, iteration counts, convergence.
func TestRankBatchBitIdenticalToRank(t *testing.T) {
	net := randomNet(t, 901, 400)
	op := OperatorFor(net)
	now := net.MaxYear()
	n := net.N()

	rng := rand.New(rand.NewSource(31))
	warm := make([]float64, n)
	for i := range warm {
		warm[i] = rng.Float64()
	}
	ps := batchGrid(n, warm)

	results, errs := op.RankBatch(now, ps)
	if len(results) != len(ps) || len(errs) != len(ps) {
		t.Fatalf("RankBatch returned %d results / %d errs for %d cells", len(results), len(errs), len(ps))
	}
	last := len(ps) - 1
	if errs[last] != nil {
		t.Fatalf("inline cell: %v", errs[last])
	}
	ref := rankReference(t, net, now, ps[last])
	if got := results[last]; got.Iterations != ref.Iterations || got.Converged != ref.Converged {
		t.Fatalf("inline cell: iters/converged = %d/%v, serial reference %d/%v",
			got.Iterations, got.Converged, ref.Iterations, ref.Converged)
	}
	for r := range ref.Scores {
		if results[last].Scores[r] != ref.Scores[r] {
			t.Fatalf("inline cell: score[%d] = %v, serial reference %v (not bit-identical)",
				r, results[last].Scores[r], ref.Scores[r])
		}
	}
	for i, p := range ps {
		if errs[i] != nil {
			t.Fatalf("cell %d: unexpected error %v", i, errs[i])
		}
		want, err := op.Rank(now, p)
		if err != nil {
			t.Fatalf("cell %d: Rank: %v", i, err)
		}
		got := results[i]
		if got == nil {
			t.Fatalf("cell %d: nil result without error", i)
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Fatalf("cell %d: iters/converged = %d/%v, want %d/%v",
				i, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
		if len(got.Residuals) != len(want.Residuals) {
			t.Fatalf("cell %d: %d residuals, want %d", i, len(got.Residuals), len(want.Residuals))
		}
		for k := range want.Residuals {
			if got.Residuals[k] != want.Residuals[k] {
				t.Fatalf("cell %d: residual %d = %v, want exactly %v", i, k, got.Residuals[k], want.Residuals[k])
			}
		}
		for r := range want.Scores {
			if got.Scores[r] != want.Scores[r] {
				t.Fatalf("cell %d: score[%d] = %v, want exactly %v (not bit-identical)",
					i, r, got.Scores[r], want.Scores[r])
			}
		}
		for r := range want.Attention {
			if got.Attention[r] != want.Attention[r] || got.Recency[r] != want.Recency[r] {
				t.Fatalf("cell %d: attention/recency vectors differ at %d", i, r)
			}
		}
	}
}

// TestRankBatchAllocationPerCell pins what the batch saves over a loop of
// Rank calls: once the kernel is compiled, K warm-free cells sharing one
// (y, w) allocate one attention and one recency copy, one pair of
// iteration buffers and K score vectors — not the five n-vectors per cell
// a Rank-per-cell loop allocates.
func TestRankBatchAllocationPerCell(t *testing.T) {
	net := randomNet(t, 905, 2000)
	op := Compile(net)
	defer op.Close()
	now := net.MaxYear()
	n := net.N()
	base := Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2, Workers: 1}
	if _, err := op.Rank(now, base); err != nil { // compile and fill the vector caches
		t.Fatal(err)
	}
	const k = 12
	ps := make([]Params, k)
	for i := range ps {
		ps[i] = base
		ps[i].Alpha = 0.1 + 0.05*float64(i)
		ps[i].Gamma = 1 - ps[i].Alpha - ps[i].Beta
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	results, errs := op.RankBatch(now, ps)
	runtime.ReadMemStats(&after)

	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	grew := after.TotalAlloc - before.TotalAlloc
	limit := uint64((k+6)*n*8) + 64<<10
	if grew > limit {
		t.Fatalf("RankBatch of %d cells over %d papers allocated %d bytes, want at most %d (%.1f n-vectors per cell)",
			k, n, grew, limit, float64(grew)/float64(k*n*8))
	}
	runtime.KeepAlive(results)
}

// TestRankBatchPerCellErrors: one bad cell must not fail its neighbors,
// and results/errs must stay complementary.
func TestRankBatchPerCellErrors(t *testing.T) {
	net := randomNet(t, 903, 120)
	op := OperatorFor(net)
	now := net.MaxYear()

	ps := []Params{
		{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2, Workers: 1},
		{Alpha: 0.9, Beta: 0.9, Gamma: 0.9},                                                                    // invalid: sum > 1
		{Alpha: 0.4, Beta: 0, Gamma: 0.6, W: -0.2, Workers: 1},                                                 // fine
		{Alpha: 0.3, Beta: 0.2, Gamma: 0.5, AttentionYears: 1, W: -0.2, Workers: 1, Start: []float64{1, 2, 3}}, // short warm start
		{Alpha: 0.2, Beta: 0.2, Gamma: 0.6, AttentionYears: 1, W: -0.2, Workers: 1},
	}
	results, errs := op.RankBatch(now, ps)
	for i := range ps {
		wantErr := i == 1 || i == 3
		if (errs[i] != nil) != wantErr {
			t.Errorf("cell %d: err = %v, wantErr = %v", i, errs[i], wantErr)
		}
		if (results[i] == nil) != (errs[i] != nil) {
			t.Errorf("cell %d: result/err not complementary", i)
		}
	}
	for _, i := range []int{0, 2, 4} {
		if errs[i] != nil {
			continue
		}
		want, err := op.Rank(now, ps[i])
		if err != nil {
			t.Fatal(err)
		}
		for r := range want.Scores {
			if results[i].Scores[r] != want.Scores[r] {
				t.Fatalf("cell %d: scores drifted next to an invalid cell", i)
			}
		}
	}
}

// TestRankBatchConcurrent hammers one operator with concurrent RankBatch
// callers (and a concurrent single Rank) — run under -race this checks
// the batched path shares the compiled matrix, pool, and vector caches
// without data races.
func TestRankBatchConcurrent(t *testing.T) {
	net := randomNet(t, 904, 250)
	op := OperatorFor(net)
	now := net.MaxYear()

	ps := []Params{
		{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2, Workers: 1},
		{Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 2, W: -0.2, Workers: 1},
		{Alpha: 0.2, Beta: 0, Gamma: 0.8, W: -0.2, Workers: 1},
		{Alpha: 0.4, Beta: 0.3, Gamma: 0.3, AttentionYears: 1, W: -0.2, Workers: 2},
	}
	want, errs := op.RankBatch(now, ps)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		_ = want[i]
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 0 {
				if _, err := op.Rank(now, ps[0]); err != nil {
					t.Error(err)
				}
				return
			}
			results, errs := op.RankBatch(now, ps)
			for i, err := range errs {
				if err != nil {
					t.Errorf("goroutine %d cell %d: %v", g, i, err)
					continue
				}
				for r := range want[i].Scores {
					if results[i].Scores[r] != want[i].Scores[r] {
						t.Errorf("goroutine %d cell %d: scores not deterministic", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
