package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"attrank/internal/core"
	"attrank/internal/eval"
	"attrank/internal/metrics"
)

// minSweeps is the least number of timed sweeps a run makes, however
// short its window.
const minSweeps = 3

// checkedCells is how many seeded grid cells the sweep gate recomputes
// through op.Rank and metrics.Spearman.
const checkedCells = 5

// sweepSetup is the offline evaluation's state: the split of the corpus,
// its ground truth, the Table-3 grid and the untimed priming sweep,
// which compiles the operator and fills its vector caches.
type sweepSetup struct {
	split *eval.Split
	truth []float64
	grid  []core.Params
	cells []eval.AttRankCell
}

func setupSweep(papers int) (*sweepSetup, error) {
	net, err := generateCorpus(papers)
	if err != nil {
		return nil, err
	}
	if err := checkCorpus(net); err != nil {
		return nil, err
	}
	split, err := eval.NewSplit(net, 2.0)
	if err != nil {
		return nil, err
	}
	st := &sweepSetup{split: split, truth: split.GroundTruth(), grid: eval.AttRankGrid(leaderParams.W)}
	st.cells = eval.SweepAttRank(st.split, st.truth, st.grid, eval.Rho())
	return st, nil
}

// runSweep runs the sweep workload: repeated full grid sweeps for the
// window. A traced run alternates untraced sweeps with traced ones that
// make the same public calls eval.SweepAttRank makes.
func runSweep(cfg config, tr *tracer) (*outcome, error) {
	t0 := time.Now()
	st, err := setupSweep(cfg.papers)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{time.Since(t0).Seconds()}
	out := newOutcome()
	for _, c := range st.cells {
		out.gate(c.Err == nil, "priming sweep cell %+v: %v", c.Params, c.Err)
	}
	op := core.OperatorFor(st.split.Current)

	var times, traced, plain []float64
	cpu0 := cpuTime()
	begin := time.Now()
	for i := 0; i < minSweeps || time.Since(begin) < cfg.window; i++ {
		t := time.Now()
		var cells []eval.AttRankCell
		if tr != nil && i%2 == 1 {
			cells = tracedSweep(tr, op, st)
		} else {
			cells = eval.SweepAttRank(st.split, st.truth, st.grid, eval.Rho())
		}
		d := ms(time.Since(t))
		times = append(times, d)
		if tr != nil && i%2 == 1 {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
		out.attempted += len(cells)
		for j, c := range cells {
			if c.Err != nil {
				out.failed++
				continue
			}
			out.gate(c.Value == st.cells[j].Value, "sweep %d cell %d: %v, priming sweep %v", i, j, c.Value, st.cells[j].Value)
		}
	}
	cpu := cpuTime() - cpu0
	out.values["p50_ms"] = quantile(times, 0.5)
	out.values["cpu_ms_per_op"] = ms(cpu) / float64(len(times))
	out.values["peak_rss_mb"] = peakRSSMB()
	fmt.Printf("sweep samples %d, %.1f cells/s at the median\n", len(times), 1000*float64(len(st.grid))/out.values["p50_ms"])

	// The gate: seeded cells recomputed one by one through the reference
	// path must match the sweep bit for bit.
	rng := newRand(cfg.seed, streamCheck)
	for k := 0; k < checkedCells; k++ {
		j := rng.Intn(len(st.grid))
		res, err := op.Rank(st.split.TN, st.grid[j])
		if err != nil {
			out.gate(false, "cell %d: op.Rank: %v", j, err)
			continue
		}
		v, err := metrics.Spearman(res.Scores, st.truth)
		out.gate(err == nil && v == st.cells[j].Value, "cell %d: op.Rank + Spearman gives %v (%v), the sweep %v", j, v, err, st.cells[j].Value)
	}

	if tr != nil {
		v := out.values
		v["bench.trace_overhead_pct"] = overheadPct(traced, plain)
		spans := tr.snapshot()
		self := selfTimes(spans)
		v["core.rank_batch_ms"] = medianMS(spans, self, "core.rank_batch")
		v["metrics.spearman_ms"] = medianMS(spans, self, "metrics.spearman")
		if err := replayStep(tr, st.split.Current, v); err != nil {
			return nil, err
		}
		return out, nil
	}
	st = nil // let the measured set-up go before timing the others
	for i := 1; i < cfg.setups; i++ {
		t0 := time.Now()
		if _, err := setupSweep(cfg.papers); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.values["setup_s"] = quantile(setups, 0.5)
	return out, nil
}

// tracedSweep is eval.SweepAttRank with a span around every call into a
// layer: the grid partitioned by (y, w), each partition ranked by one
// RankBatch in ascending α, each cell scored by a scratch Spearman, the
// partitions spread over GOMAXPROCS workers.
func tracedSweep(tr *tracer, op *core.Operator, st *sweepSetup) []eval.AttRankCell {
	root := span{Name: "eval.sweep", ID: tr.newID(), Start: tr.at(time.Now())}
	parts := partitionGrid(st.grid)
	cells := make([]eval.AttRankCell, len(st.grid))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(parts)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := metrics.NewScratch()
			for {
				pi := int(next.Add(1) - 1)
				if pi >= len(parts) {
					return
				}
				part := parts[pi]
				ps := make([]core.Params, len(part))
				for j, gi := range part {
					ps[j] = st.grid[gi]
					if ps[j].Workers == 0 {
						ps[j].Workers = 1
					}
				}
				var (
					results []*core.Result
					errs    []error
				)
				tr.timed("core.rank_batch", root.ID, func() { results, errs = op.RankBatch(st.split.TN, ps) })
				for j, gi := range part {
					c := eval.AttRankCell{Params: st.grid[gi], Err: errs[j]}
					if c.Err == nil {
						tr.timed("metrics.spearman", root.ID, func() { c.Value, c.Err = scratch.Spearman(results[j].Scores, st.truth) })
					}
					cells[gi] = c
					results[j] = nil
				}
			}
		}()
	}
	wg.Wait()
	root.End = tr.at(time.Now())
	tr.record(root)
	return cells
}

// partitionGrid groups grid indices by shared (AttentionYears, W) in
// first-seen order, each group in ascending α with ties in grid order.
func partitionGrid(grid []core.Params) [][]int {
	type ywKey struct {
		y int
		w float64
	}
	index := map[ywKey]int{}
	var parts [][]int
	for i, p := range grid {
		k := ywKey{y: p.AttentionYears, w: p.W}
		at, ok := index[k]
		if !ok {
			at = len(parts)
			index[k] = at
			parts = append(parts, nil)
		}
		parts[at] = append(parts[at], i)
	}
	for _, part := range parts {
		sort.SliceStable(part, func(a, b int) bool { return grid[part[a]].Alpha < grid[part[b]].Alpha })
	}
	return parts
}
