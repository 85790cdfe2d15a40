package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// assertEqualResult requires got to equal want field for field: scores,
// iteration count, convergence, every residual and the attention and
// recency vectors, all with ==. Duration is wall clock and not compared.
func assertEqualResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: iterations/converged = %d/%v, want %d/%v", label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if len(got.Residuals) != len(want.Residuals) {
		t.Fatalf("%s: %d residuals, want %d", label, len(got.Residuals), len(want.Residuals))
	}
	for k := range want.Residuals {
		if got.Residuals[k] != want.Residuals[k] {
			t.Fatalf("%s: residual %d = %v, want exactly %v", label, k, got.Residuals[k], want.Residuals[k])
		}
	}
	for name, pair := range map[string][2][]float64{
		"scores":    {got.Scores, want.Scores},
		"attention": {got.Attention, want.Attention},
		"recency":   {got.Recency, want.Recency},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %d %s, want %d", label, len(pair[0]), name, len(pair[1]))
		}
		for i := range pair[1] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s: %s[%d] = %v, want exactly %v", label, name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestRankBatchLanesMatchRank pins RankBatch's lane grouping to op.Rank,
// field for field, on a mixed batch in shuffled input order:
//   - lane groups of 9 (4+4+1), 6 (4+2) and 3 cells, so groups of one to
//     three cells run beside padding lanes, with tied α values, split by
//     Workers (1, 2, −1) and Tol;
//   - a lane group stopped by MaxIter, with two lanes converged before
//     it and two not;
//   - α = 0 cells, warm-started cells and invalid cells (a bad sum, a
//     short warm start) between them.
//
// The four largest-α cells of the first group must share one score
// block in descending α, which shows they were ranked as lanes, and a
// lane that stopped at an earlier iteration must report a shorter
// Duration than one that went on.
func TestRankBatchLanesMatchRank(t *testing.T) {
	net := randomNet(t, 907, 3000)
	op := OperatorFor(net)
	now := net.MaxYear()
	n := net.N()
	rng := rand.New(rand.NewSource(41))
	warm := make([]float64, n)
	for i := range warm {
		warm[i] = rng.Float64()
	}

	// β varies from lane to lane, so a lane that reads another's
	// coefficients shows.
	betas := []float64{0.3, 0.1, 0.45, 0.2, 0.35, 0, 0.5, 0.25, 0.4}
	cell := func(k int, alpha float64, y, workers int) Params {
		beta := betas[k%len(betas)]
		return Params{Alpha: alpha, Beta: beta, Gamma: 1 - alpha - beta, AttentionYears: y, W: -0.2, Workers: workers}
	}
	var ps []Params
	for k, a := range []float64{0.5, 0.45, 0.45, 0.4, 0.3, 0.3, 0.2, 0.1, 0.05} {
		ps = append(ps, cell(k, a, 3, 1)) // ps[0:4] are this group's largest α
	}
	for k, a := range []float64{0.5, 0.4, 0.35, 0.3, 0.2, 0.1} {
		ps = append(ps, cell(k+1, a, 2, 2))
	}
	for k, a := range []float64{0.45, 0.25, 0.15} {
		p := cell(k+2, a, 2, 1)
		p.Tol = 1e-8
		ps = append(ps, p)
	}
	for k, a := range []float64{0.5, 0.35, 0.1, 0.05} {
		p := cell(k+3, a, 4, 1)
		p.MaxIter = 12
		ps = append(ps, p)
	}
	for k, a := range []float64{0.4, 0.3, 0.2} {
		ps = append(ps, cell(k+4, a, 1, -1))
	}
	ps = append(ps,
		cell(0, 0, 3, 1), cell(6, 0, 2, 1), // α = 0
		Params{Alpha: 0.4, Beta: 0.3, Gamma: 0.3, AttentionYears: 3, W: -0.2, Workers: 1, Start: warm},
		Params{Alpha: 0.2, Beta: 0.3, Gamma: 0.5, AttentionYears: 3, W: -0.2, Workers: 1, Start: warm},
		Params{Alpha: 0.9, Beta: 0.9, Gamma: 0.9},                                                        // invalid sum
		Params{Alpha: 0.3, Beta: 0.3, Gamma: 0.4, AttentionYears: 3, W: -0.2, Start: []float64{1, 2, 3}}, // short warm start
	)
	order := rng.Perm(len(ps))
	shuffled := make([]Params, len(ps))
	for i, j := range order {
		shuffled[i] = ps[j]
	}

	results, errs := op.RankBatch(now, shuffled)
	unconverged := 0
	for i, p := range shuffled {
		want, wantErr := op.Rank(now, p)
		if (errs[i] != nil) != (wantErr != nil) || (results[i] == nil) != (errs[i] != nil) {
			t.Fatalf("cell %d (%+v): err = %v, result %v; Rank err = %v", i, p, errs[i], results[i] != nil, wantErr)
		}
		if wantErr != nil {
			continue
		}
		assertEqualResult(t, fmt.Sprintf("cell %d", i), results[i], want)
		if !want.Converged {
			unconverged++
		}
	}
	if unconverged != 2 {
		t.Fatalf("%d cells stopped unconverged, want the MaxIter group's two largest α", unconverged)
	}

	// ps[0:4] are the first group's four largest α. Their shuffled
	// positions give their results, whose scores must tile one block
	// with the largest α, the first lane, at its start.
	var block []uintptr
	for k := 0; k < 4; k++ {
		for i, j := range order {
			if j == k {
				block = append(block, reflect.ValueOf(results[i].Scores).Pointer())
			}
		}
	}
	var group []*Result
	for k := 0; k < 4; k++ {
		group = append(group, results[slices.Index(order, k)])
	}
	differ := false
	for _, a := range group {
		for _, b := range group {
			if a.Iterations < b.Iterations {
				differ = true
				if a.Duration >= b.Duration {
					t.Fatalf("a lane stopped after %d iterations took %v, one stopped after %d took %v: want each lane's own time", a.Iterations, a.Duration, b.Iterations, b.Duration)
				}
			}
		}
	}
	if !differ {
		t.Fatal("the first lane group's cells all stopped at one iteration; the Duration check needs two that differ")
	}

	lane0 := block[0]
	slices.Sort(block)
	for k := range block {
		if block[k] != lane0+uintptr(8*k*n) {
			t.Fatalf("the four largest-α cells' scores are not one lane block from the largest α: addresses %#x, α 0.5 at %#x", block, lane0)
		}
	}
}

// TestRankBatchAllocationPerLaneGroup sizes what RankBatch allocates
// when its lane groups are not full: K cold cells sharing one laneKey
// form ⌈K/Lanes⌉ groups, each of which allocates a Lanes·n score block,
// padding lanes included, beside the batch's one attention and one
// recency copy and its Lanes·n premultiplied buffer. At K = 12 this is
// TestRankBatchAllocationPerCell's (K+6)·n; at K = 1, 3 and 5 the padding
// lanes cost (Lanes − K mod Lanes)·n more. The corpus is large enough
// that the 64 KiB slack is under half an n-vector.
func TestRankBatchAllocationPerLaneGroup(t *testing.T) {
	net := randomNet(t, 905, 20000)
	op := Compile(net)
	defer op.Close()
	now := net.MaxYear()
	n := net.N()
	base := Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2, Workers: 1}
	if _, err := op.Rank(now, base); err != nil { // compile and fill the vector caches
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 5} {
		ps := make([]Params, k)
		for i := range ps {
			ps[i] = base
			ps[i].Alpha = 0.1 + 0.05*float64(i)
			ps[i].Gamma = 1 - ps[i].Alpha - ps[i].Beta
		}
		groups := (k + Lanes - 1) / Lanes
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		results, errs := op.RankBatch(now, ps)
		runtime.ReadMemStats(&after)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("k=%d cell %d: %v", k, i, err)
			}
		}
		grew := after.TotalAlloc - before.TotalAlloc
		limit := uint64((Lanes*groups+2+Lanes)*n*8) + 64<<10
		if grew > limit {
			t.Fatalf("RankBatch of %d cells (%d lane groups) over %d papers allocated %d bytes, want at most %d (%.2f n-vectors)",
				k, groups, n, grew, limit, float64(grew)/float64(n*8))
		}
		runtime.KeepAlive(results)
	}
}
