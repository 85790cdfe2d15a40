package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/ingest"
	"attrank/internal/metrics"
	"attrank/internal/sparse"
)

// Stage replay: after the load, a traced run repeats the work of one
// epoch outside the running system, one public call per stage in the
// order ingest's re-rank makes them, so each layer's share shows in
// isolation. The observed epochs give the batch size; the final leader
// corpus is the input.
const (
	replayReps = 5
	walReps    = 20
	stepReps   = 20
)

// replayBatch makes n mutations shaped like the workload's writes:
// with newPapers, n new papers each citing an existing one; otherwise n
// new citations between existing papers, drawn as write_push draws them.
func replayBatch(rng *rand.Rand, net *graph.Network, n int, newPapers bool) []ingest.Mutation {
	var muts []ingest.Mutation
	if !newPapers {
		pool, used := citingPool(net), make(map[[2]int32]bool, n)
		for i := 0; i < n; i++ {
			a, b := newCitation(rng, net, pool, used)
			muts = append(muts, ingest.Mutation{Kind: ingest.KindCitation,
				Citation: ingest.CitationMut{Citing: net.Paper(a).ID, Cited: net.Paper(b).ID}})
		}
		return muts
	}
	for i := 0; i < n; i++ {
		id := "replay" + strconv.Itoa(i)
		cited := net.Paper(int32(rng.Intn(net.N()))).ID
		muts = append(muts,
			ingest.Mutation{Kind: ingest.KindPaper, Paper: ingest.PaperMut{ID: id, Year: net.MaxYear()}},
			ingest.Mutation{Kind: ingest.KindCitation, Citation: ingest.CitationMut{Citing: id, Cited: cited}})
	}
	return muts
}

// replayWAL times a WAL append of one write's mutations, fsync included,
// on a scratch log.
func replayWAL(tr *tracer, dir string, write []ingest.Mutation, vals map[string]float64) error {
	wal, err := ingest.OpenWAL(filepath.Join(dir, "replay-wal.log"), func(ingest.Mutation) error { return nil })
	if err != nil {
		return err
	}
	var appendErr error
	for i := 0; i < walReps && appendErr == nil; i++ {
		tr.timed("ingest.wal_append", 0, func() { appendErr = wal.Append(write...) })
	}
	if err := wal.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	spans := tr.snapshot()
	vals["ingest.wal_append_ms"] = medianMS(spans, selfTimes(spans), "ingest.wal_append")
	return appendErr
}

// replayFull repeats a full epoch: compaction, the tracker's warm-started
// rank (whose compile and iterations are also timed on their own),
// ordering, statistics and the impact indicators.
func replayFull(tr *tracer, r *ingest.Ranking, batch []ingest.Mutation, vals map[string]float64) error {
	var compile []core.CompileStats
	var iterations []float64
	for rep := 0; rep < replayReps; rep++ {
		root := span{Name: "replay.full", ID: tr.newID(), Start: tr.at(time.Now())}
		var (
			next *graph.Network
			err  error
		)
		tr.timed("graph.compact", root.ID, func() {
			b := graph.NewBuilderFrom(r.Net)
			for _, m := range batch {
				switch m.Kind {
				case ingest.KindPaper:
					if _, err = b.AddPaper(m.Paper.ID, m.Paper.Year, m.Paper.Authors, m.Paper.Venue); err != nil {
						return
					}
				case ingest.KindCitation:
					b.AddEdge(m.Citation.Citing, m.Citation.Cited)
				}
			}
			next, err = b.Build()
		})
		if err != nil {
			return fmt.Errorf("replay compaction: %w", err)
		}
		now := next.MaxYear()

		// The tracker's Update compiles a fresh operator for the new
		// network and ranks it warm; compile and warm rank run once more
		// on their own operator to split that cost.
		op := core.Compile(next)
		var cs core.CompileStats
		tr.timed("core.compile", root.ID, func() { cs, err = op.PrimeKernel() })
		if err != nil {
			return err
		}
		compile = append(compile, cs)
		p := leaderParams
		p.Start = warmStart(r, next)
		var res *core.Result
		tr.timed("core.rank_warm", root.ID, func() { res, err = op.Rank(now, p) })
		if err != nil {
			return err
		}
		op.Close()
		iterations = append(iterations, float64(res.Iterations))

		tracker, err := core.NewTracker(leaderParams)
		if err != nil {
			return err
		}
		if err := tracker.Seed(r.Net, r.Result.Scores); err != nil {
			return err
		}
		tr.timed("core.tracker_update", root.ID, func() { res, err = tracker.Update(next, now) })
		if err != nil {
			return err
		}
		tr.timed("metrics.ordering", root.ID, func() { metrics.Ordering(res.Scores) })
		tr.timed("graph.stats", root.ID, func() { next.ComputeStats() })
		tr.timed("impact.compute", root.ID, func() {
			impact.ForRanking(next, res.Scores, now, impact.Config{Enabled: true}.WithDefaults(), nil)
		})
		root.End = tr.at(time.Now())
		tr.record(root)
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, name := range []string{"graph.compact", "core.compile", "core.rank_warm", "core.tracker_update",
		"metrics.ordering", "graph.stats", "impact.compute"} {
		vals[name+"_ms"] = medianMS(spans, self, name)
	}
	var stoch, relabel, tiles []float64
	for _, cs := range compile {
		stoch = append(stoch, float64(cs.StochasticNS)/1e6)
		relabel = append(relabel, float64(cs.RelabelNS)/1e6)
		tiles = append(tiles, float64(cs.TiledNS)/1e6)
	}
	vals["core.compile_stochastic_ms"] = quantile(stoch, 0.5)
	vals["core.compile_relabel_ms"] = quantile(relabel, 0.5)
	vals["core.compile_tiles_ms"] = quantile(tiles, 0.5)
	vals["core.rank_iterations"] = quantile(iterations, 0.5)
	return nil
}

// warmStart is the start vector ingest's tracker builds for next from
// the scores of r: carried scores by paper id, the mean for new papers.
func warmStart(r *ingest.Ranking, next *graph.Network) []float64 {
	start := make([]float64, next.N())
	sum, hits := 0.0, 0
	for i := range start {
		if j, ok := r.Net.Lookup(next.Paper(int32(i)).ID); ok {
			start[i] = r.Result.Scores[j]
			sum += start[i]
			hits++
		}
	}
	for i := range start {
		if start[i] == 0 {
			start[i] = sum / float64(hits)
		}
	}
	return start
}

// replayPush repeats a push epoch: seed a pusher from the exact scores,
// add the batch's citations, settle, copy the scores out and order them.
func replayPush(tr *tracer, r *ingest.Ranking, batch []ingest.Mutation, vals map[string]float64) error {
	var pushes []float64
	now := r.RankedAt
	for rep := 0; rep < replayReps; rep++ {
		root := span{Name: "replay.push", ID: tr.newID(), Start: tr.at(time.Now())}
		var (
			pu  *core.Pusher
			st  core.PushStats
			err error
		)
		tr.timed("core.push_seed", root.ID, func() {
			pu, err = core.NewPusher(r.Net, now, leaderParams, core.PushConfig{Tol: pushTol}, r.Result.Scores)
		})
		if err != nil {
			return err
		}
		tr.timed("core.push_add", root.ID, func() {
			for _, m := range batch {
				ci, _ := r.Net.Lookup(m.Citation.Citing)
				ti, _ := r.Net.Lookup(m.Citation.Cited)
				if err = pu.AddCitation(ci, ti); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		tr.timed("core.push_settle", root.ID, func() { st, err = pu.Settle() })
		if err != nil {
			return err
		}
		pushes = append(pushes, float64(st.Pushes))
		var scores []float64
		tr.timed("core.push_copy", root.ID, func() { scores = pu.CopyScores() })
		tr.timed("metrics.ordering", root.ID, func() { metrics.Ordering(scores) })
		root.End = tr.at(time.Now())
		tr.record(root)
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	vals["core.push_seed_ms"] = medianMS(spans, self, "core.push_seed")
	vals["core.push_settle_ms"] = medianMS(spans, self, "core.push_settle")
	vals["metrics.ordering_ms"] = medianMS(spans, self, "metrics.ordering")
	vals["core.pushes"] = quantile(pushes, 0.5)
	return nil
}

// replayTopK times the selection /v1/top makes, over the read mix's
// top requests, on the served scores.
func replayTopK(tr *tracer, scores []float64, reads []op, vals map[string]float64) {
	for _, o := range reads {
		if o.kind != opTop {
			continue
		}
		k := o.items
		if _, after, ok := strings.Cut(o.path, "offset="); ok {
			off, _ := strconv.Atoi(after)
			k += off
		}
		tr.timed("metrics.topk", 0, func() { metrics.TopK(scores, k) })
	}
	spans := tr.snapshot()
	vals["metrics.topk_ms"] = medianMS(spans, selfTimes(spans), "metrics.topk")
}

// replayStep times one power step of the production tiled kernel on
// net, at one partition and at one partition per core, as the operator
// runs it: rows relabeled into degree runs, vectors permuted in.
func replayStep(tr *tracer, net *graph.Network, vals map[string]float64) error {
	s, err := net.StochasticMatrix()
	if err != nil {
		return err
	}
	n := net.N()
	deg := make([]int32, n)
	for i := range deg {
		deg[i] = int32(net.Degree(int32(i)))
	}
	pool := sparse.NewPool(0)
	defer pool.Close()
	tiled := s.Tiled(pool, s.DegreeOrder(sparse.RCMOrder(n, deg, net.Neighbors)))
	perm := tiled.Perm()
	permute := func(v []float64) []float64 {
		out := make([]float64, n)
		for i, p := range perm {
			out[p] = v[i]
		}
		return out
	}
	now := net.MaxYear()
	x := sparse.Uniform(n)
	att := permute(core.AttentionVector(net, now, leaderParams.AttentionYears))
	rec := permute(core.RecencyVector(net, now, leaderParams.W))
	next := make([]float64, n)
	a, b, g := leaderParams.Alpha, leaderParams.Beta, leaderParams.Gamma
	for i := 0; i < stepReps; i++ {
		tr.timed("sparse.step", 0, func() { tiled.Step(next, x, att, rec, a, b, g, 1) })
		tr.timed("sparse.step_par", 0, func() { tiled.Step(next, x, att, rec, a, b, g, pool.Size()) })
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	vals["sparse.step_ms"] = medianMS(spans, self, "sparse.step")
	vals["sparse.step_par_ms"] = medianMS(spans, self, "sparse.step_par")
	vals["sparse.bytes_per_nnz"] = tiled.Stats().BytesPerNNZ
	return nil
}
