package eval

import (
	"fmt"
	"runtime"
	"sync"

	"attrank/internal/core"
	"attrank/internal/metrics"
)

// Metric is a ranking-quality measure against the STI ground truth.
type Metric struct {
	// Name is "rho" or "ndcg@k".
	Name string
	// Fn compares a method's scores with the ground-truth gains.
	Fn func(scores, truth []float64) (float64, error)
	// ScratchFn, when set, is the buffer-reusing form of Fn: identical
	// results through a metrics.Scratch owned by the calling sweep
	// worker. Sweeps fall back to Fn when it is nil, so custom metrics
	// keep working unchanged.
	ScratchFn func(s *metrics.Scratch, scores, truth []float64) (float64, error)
}

// score evaluates the metric, preferring the scratch-backed form.
func (m Metric) score(s *metrics.Scratch, scores, truth []float64) (float64, error) {
	if m.ScratchFn != nil && s != nil {
		return m.ScratchFn(s, scores, truth)
	}
	return m.Fn(scores, truth)
}

// Rho returns the Spearman correlation metric of §4.1.
func Rho() Metric {
	return Metric{
		Name:      "rho",
		Fn:        metrics.Spearman,
		ScratchFn: (*metrics.Scratch).Spearman,
	}
}

// NDCGAt returns the nDCG@k metric of §4.1.
func NDCGAt(k int) Metric {
	return Metric{
		Name: fmt.Sprintf("ndcg@%d", k),
		Fn: func(scores, truth []float64) (float64, error) {
			return metrics.NDCG(scores, truth, k)
		},
		ScratchFn: func(s *metrics.Scratch, scores, truth []float64) (float64, error) {
			return s.NDCG(scores, truth, k)
		},
	}
}

// SweepResult is the outcome of evaluating one candidate configuration.
type SweepResult struct {
	Label string
	Value float64
	// Err is non-nil when the configuration failed (e.g. non-convergence);
	// such configurations are excluded from best-of selection, as the
	// paper excludes non-converging parameter ranges (§4.3 footnote).
	Err error
}

// SweepCandidates evaluates every candidate on the split and returns the
// per-candidate results in input order plus the index of the best
// successful one (−1 if none succeeded). Work is spread over a fixed
// pool of GOMAXPROCS workers — not a goroutine per candidate — and each
// worker reuses one metrics.Scratch across its cells.
func SweepCandidates(s *Split, truth []float64, cands []Candidate, m Metric) ([]SweepResult, int) {
	results := make([]SweepResult, len(cands))
	runWorkers(len(cands), func(scratch *metrics.Scratch, i int) {
		c := cands[i]
		scores, err := c.Method.Scores(s.Current, s.TN)
		if err != nil {
			results[i] = SweepResult{Label: c.Label, Err: err}
			return
		}
		v, err := m.score(scratch, scores, truth)
		results[i] = SweepResult{Label: c.Label, Value: v, Err: err}
	})
	best := -1
	for i, r := range results {
		if r.Err != nil {
			continue
		}
		if best < 0 || r.Value > results[best].Value {
			best = i
		}
	}
	return results, best
}

// AttRankCell is the sweep outcome for one Table-3 grid point.
type AttRankCell struct {
	Params core.Params
	Value  float64
	Err    error
}

// SweepAttRank evaluates the full AttRank grid on the split, returning
// cells in grid order with a per-cell error, exactly as the sequential
// sweep did. Internally the grid is partitioned by shared (y, w) — cells
// that differ only in α/β/γ share one attention and one recency vector —
// and each partition runs through one RankBatch, which also reuses one
// pair of iteration buffers across its cells. Scores per cell are
// bit-identical to the per-cell op.Rank the sequential sweep performed.
// Partitions are spread over a fixed pool of GOMAXPROCS workers, each
// reusing one metrics.Scratch.
func SweepAttRank(s *Split, truth []float64, grid []core.Params, m Metric) []AttRankCell {
	op := core.OperatorFor(s.Current)
	cells := make([]AttRankCell, len(grid))

	// Partition the grid by (y, w) in first-seen order.
	type ywKey struct {
		y int
		w float64
	}
	index := map[ywKey]int{}
	var partitions [][]int // original grid indices per partition
	for i, p := range grid {
		k := ywKey{y: p.AttentionYears, w: p.W}
		at, ok := index[k]
		if !ok {
			at = len(partitions)
			index[k] = at
			partitions = append(partitions, nil)
		}
		partitions[at] = append(partitions[at], i)
	}

	runWorkers(len(partitions), func(scratch *metrics.Scratch, pi int) {
		part := partitions[pi]
		ps := make([]core.Params, len(part))
		for j, gi := range part {
			ps[j] = grid[gi]
			if ps[j].Workers == 0 {
				// Workers = 0 cells would run the serial CSC reference; the
				// tiled kernel on one worker ranks the same scores bit for
				// bit, faster. Cells that set Workers keep it.
				ps[j].Workers = 1
			}
		}
		results, errs := op.RankBatch(s.TN, ps)
		for j, gi := range part {
			p := grid[gi]
			if errs[j] != nil {
				cells[gi] = AttRankCell{Params: p, Err: errs[j]}
				continue
			}
			v, err := m.score(scratch, results[j].Scores, truth)
			cells[gi] = AttRankCell{Params: p, Value: v, Err: err}
			results[j] = nil // release the score vector before the next cell
		}
	})
	return cells
}

// BestCell returns the best successful cell, optionally filtered. The
// filter selects the AttRank variants of the comparison: nil for full
// AttRank, β=0 for NO-ATT, β=1 for ATT-ONLY.
func BestCell(cells []AttRankCell, filter func(core.Params) bool) (AttRankCell, bool) {
	var best AttRankCell
	found := false
	for _, c := range cells {
		if c.Err != nil {
			continue
		}
		if filter != nil && !filter(c.Params) {
			continue
		}
		if !found || c.Value > best.Value {
			best = c
			found = true
		}
	}
	return best, found
}

// NoAttFilter selects the β = 0 cells (NO-ATT variant).
func NoAttFilter(p core.Params) bool { return p.Beta == 0 }

// AttOnlyFilter selects the β = 1 cells (ATT-ONLY variant).
func AttOnlyFilter(p core.Params) bool { return p.Beta == 1 }

// runWorkers distributes indices [0, n) over a fixed pool of at most
// GOMAXPROCS goroutines, handing each worker a private metrics.Scratch.
// The semaphore-free shape is deliberate: the old sweep spawned one
// goroutine per cell that immediately blocked on a channel semaphore,
// which for a 500-cell grid meant 500 parked goroutines; here exactly
// min(n, GOMAXPROCS) goroutines exist and pull indices from a channel.
// n == 1 (or a single worker) runs inline on the caller.
func runWorkers(n int, fn func(scratch *metrics.Scratch, i int)) {
	workers := maxParallel()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		scratch := metrics.NewScratch()
		for i := 0; i < n; i++ {
			fn(scratch, i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := metrics.NewScratch()
			for i := range idx {
				fn(scratch, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

func maxParallel() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}
