// Command attrank-bench measures the ranking hot path on a 100k-paper
// synthetic DBLP-profile citation network and writes the results as
// JSON. It has two modes:
//
//	attrank-bench [-out BENCH_core.json]
//	attrank-bench -ingest [-ingest-out BENCH_ingest.json]
//
// The default mode writes BENCH_core.json. It times, per power-method
// iteration: the serial CSC reference kernel (three sweeps) and the
// production tiled kernel (degree-run relabeled, compressed 16-bit
// tiles) on one worker and on one worker per core. It also reports the
// layout's compression (bytes per nonzero, tile shape), the one-off
// compile pipeline costs a network's operator pays once and every later
// rank of that network reuses (normalization, degree-run relabeling,
// then tile cutting) and a full cold-vs-warm Rank comparison.
//
// With -ingest it writes BENCH_ingest.json: single-citation incremental
// push re-ranks against warm full re-ranks, with reconciliation
// bit-equality and staleness-bound gates (see ingest.go). Exits non-zero
// on any violation. TestIngestGates runs the same gates at 5k papers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"attrank/internal/core"
	"attrank/internal/sparse"
	"attrank/internal/synth"
)

// The committed BENCH files' sizes: papers of the synthetic network,
// timing repetitions per kernel (best-of), and for -ingest the
// single-citation writes pushed through one pusher, the warm full
// re-ranks timed, the push writes between exact-deviation checks and
// the live rank-per-write Ingester writes per arm.
const (
	benchPapers      = 100000
	benchReps        = 20
	ingestPushWrites = 400
	ingestFullReps   = 25
	ingestCheckEvery = 50
	ingestLiveWrites = 150
)

type report struct {
	GeneratedAt string `json:"generated_at"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Profile     string `json:"profile"`
	Papers      int    `json:"papers"`
	Edges       int    `json:"edges"`
	Dangling    int    `json:"dangling_papers"`
	Reps        int    `json:"reps"`

	// One-off costs the compiled operator pays once per network: the
	// stochastic normalization, the degree-run ordering of its rows and
	// the tile cutting, one after the other, and their wall clock.
	CompileStochasticNS int64 `json:"compile_stochastic_ns"`
	CompileRelabelNS    int64 `json:"compile_relabel_ns"`
	CompileTiledNS      int64 `json:"compile_tiled_ns"`
	CompileWallNS       int64 `json:"compile_pipeline_wall_ns"`

	// Compiled tile layout: the bytes the kernel streams per nonzero
	// (values + 16-bit column words + row pointers + tile headers; the
	// CSR baseline is 12B/nnz plus row pointers) and the tile shape.
	BytesPerNNZ      float64 `json:"bytes_per_nnz"`
	IndexBytes       int64   `json:"index_bytes"`
	Tiles            int     `json:"tiles"`
	Windows          int     `json:"windows"`
	TileRowOccupancy float64 `json:"tile_row_occupancy"`

	// Per-iteration wall clock (best of reps), in nanoseconds. The
	// fused numbers measure the production tiled kernel.
	IterSerialNS      int64 `json:"iter_serial_ns"`
	IterFusedSerialNS int64 `json:"iter_fused_parts1_ns"`
	IterFusedNS       int64 `json:"iter_fused_ns"`

	// One four-lane pass of the tiled kernel (StepLanes, which RankBatch
	// runs for the cells of a sweep) at parts 1, and what one lane saves
	// against one single-vector step: 4·iter_fused_parts1_ns divided by
	// iter_lanes4_ns.
	IterLanes4NS         int64   `json:"iter_lanes4_ns"`
	Lanes4PerLaneSpeedup float64 `json:"lanes4_per_lane_speedup"`

	// Full Rank wall clock: cold compiles everything, warm reuses the
	// network's compiled operator (core.OperatorFor) and warm-starts
	// from the previous scores.
	RankColdNS    int64   `json:"rank_cold_ns"`
	RankWarmNS    int64   `json:"rank_warm_ns"`
	RankColdIters int     `json:"rank_cold_iterations"`
	RankWarmIters int     `json:"rank_warm_iterations"`
	FusedVsSerial float64 `json:"fused_vs_serial_speedup"`
}

func main() {
	var (
		out       = flag.String("out", "BENCH_core.json", "output JSON path")
		ingestB   = flag.Bool("ingest", false, "benchmark the incremental-ranking push path against warm full re-ranks, with exactness and bit-equality gates (exits non-zero on any violation)")
		ingestOut = flag.String("ingest-out", "BENCH_ingest.json", "output JSON path for -ingest")
	)
	flag.Parse()
	var err error
	if *ingestB {
		err = runIngest(benchPapers, ingestPushWrites, ingestFullReps, ingestCheckEvery, ingestLiveWrites, *ingestOut)
	} else {
		err = run(benchPapers, *out, benchReps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "attrank-bench:", err)
		os.Exit(1)
	}
}

// dblp is the synthetic DBLP profile scaled to the given paper count.
func dblp(papers int) synth.Profile {
	prof := synth.DBLP()
	return prof.Scale(float64(papers) / float64(prof.Papers))
}

func run(papers int, out string, reps int) error {
	prof := dblp(papers)
	fmt.Printf("generating %s network with %d papers…\n", prof.Name, prof.Papers)
	net, err := synth.Generate(prof)
	if err != nil {
		return err
	}
	r := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Profile:     prof.Name,
		Papers:      net.N(),
		Edges:       net.Edges(),
		Reps:        reps,
	}

	// One-off compilation costs: the operator's compile pipeline
	// (normalize, relabel, cut tiles), with the layout it produced.
	op := core.OperatorFor(net)
	cs, err := op.PrimeKernel()
	if err != nil {
		return err
	}
	r.CompileStochasticNS = cs.StochasticNS
	r.CompileRelabelNS = cs.RelabelNS
	r.CompileTiledNS = cs.TiledNS
	r.CompileWallNS = cs.WallNS
	r.BytesPerNNZ = cs.Layout.BytesPerNNZ
	r.IndexBytes = cs.Layout.IndexBytes
	r.Tiles = cs.Layout.Tiles
	r.Windows = cs.Layout.Windows
	r.TileRowOccupancy = cs.Layout.Occupancy

	s, err := net.StochasticMatrix()
	if err != nil {
		return err
	}
	r.Dangling = s.DanglingCount()

	pool := sparse.NewPool(0)
	defer pool.Close()

	n := net.N()
	now := net.MaxYear()
	att := core.AttentionVector(net, now, 3)
	rec := core.RecencyVector(net, now, -0.16)
	x := sparse.Uniform(n)
	next := make([]float64, n)

	// The tiled kernel works in relabeled (storage) space: rebuild the
	// operator's layout at the sparse layer and permute the vectors in
	// once, exactly as core.Operator does per Rank.
	perm := s.DegreeOrder(nil)
	tiled := s.Tiled(pool, perm)
	permute := func(v []float64) []float64 {
		out := make([]float64, n)
		for i, p := range perm {
			out[p] = v[i]
		}
		return out
	}
	xp, attP, recP := permute(x), permute(att), permute(rec)
	nextP := make([]float64, n)

	r.IterSerialNS = best(reps, func() {
		s.MulVec(next, x)
		for i := range next {
			next[i] = 0.5*next[i] + 0.3*att[i] + 0.2*rec[i]
		}
		_ = sparse.L1Diff(next, x)
	})
	r.IterFusedSerialNS = best(reps, func() {
		tiled.Step(nextP, xp, attP, recP, 0.5, 0.3, 0.2, 1)
	})
	r.IterFusedNS = best(reps, func() {
		tiled.Step(nextP, xp, attP, recP, 0.5, 0.3, 0.2, pool.Size())
	})
	r.FusedVsSerial = float64(r.IterSerialNS) / float64(r.IterFusedNS)

	// Four lanes with the fused step's coefficients, all starting from
	// its iterate. StepLanes updates in place, so the reps time
	// successive passes; a pass costs the same at any iterate.
	xl, yl := make([]float64, sparse.Lanes*n), make([][sparse.Lanes]float64, n)
	for i, v := range xp {
		for l := 0; l < sparse.Lanes; l++ {
			xl[sparse.Lanes*i+l] = v
		}
	}
	var lanes sparse.LaneSet
	for l := range lanes.Live {
		lanes.Alpha[l], lanes.Beta[l], lanes.Gamma[l], lanes.Live[l] = 0.5, 0.3, 0.2, true
	}
	r.IterLanes4NS = best(reps, func() {
		tiled.StepLanes(xl, yl, attP, recP, &lanes, 1)
	})
	r.Lanes4PerLaneSpeedup = float64(sparse.Lanes*r.IterFusedSerialNS) / float64(r.IterLanes4NS)

	// Full cold rank on a fresh operator vs warm rank on the network's
	// already compiled one.
	p := core.Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16, Workers: -1}
	coldDur, coldRes, err := rankOnce(core.Compile(net), now, p)
	if err != nil {
		return err
	}
	r.RankColdNS = coldDur
	r.RankColdIters = coldRes.Iterations

	if _, _, err := rankOnce(op, now, p); err != nil { // prime the vector caches
		return err
	}
	warm := p
	warm.Start = coldRes.Scores
	warmDur, warmRes, err := rankOnce(op, now, warm)
	if err != nil {
		return err
	}
	r.RankWarmNS = warmDur
	r.RankWarmIters = warmRes.Iterations

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("papers=%d edges=%d dangling=%d\n", r.Papers, r.Edges, r.Dangling)
	fmt.Printf("layout: %.2f B/nnz (csr: 12+), %d tiles, %d windows, occupancy %.3f\n",
		r.BytesPerNNZ, r.Tiles, r.Windows, r.TileRowOccupancy)
	fmt.Printf("compile: stoch=%s relabel=%s tiles=%s wall=%s\n",
		time.Duration(r.CompileStochasticNS), time.Duration(r.CompileRelabelNS),
		time.Duration(r.CompileTiledNS), time.Duration(r.CompileWallNS))
	fmt.Printf("per-iteration: serial=%s tiled(1)=%s tiled(%d)=%s\n",
		time.Duration(r.IterSerialNS), time.Duration(r.IterFusedSerialNS), pool.Size(), time.Duration(r.IterFusedNS))
	fmt.Printf("tiled speedup: %.2fx vs serial\n", r.FusedVsSerial)
	fmt.Printf("four-lane step: %s, %.2fx per lane vs tiled(1)\n", time.Duration(r.IterLanes4NS), r.Lanes4PerLaneSpeedup)
	fmt.Printf("full rank: cold=%s (%d iters) warm=%s (%d iters)\n",
		time.Duration(r.RankColdNS), r.RankColdIters, time.Duration(r.RankWarmNS), r.RankWarmIters)
	fmt.Printf("wrote %s\n", out)
	return nil
}

func rankOnce(op *core.Operator, now int, p core.Params) (int64, *core.Result, error) {
	t0 := time.Now()
	res, err := op.Rank(now, p)
	if err != nil {
		return 0, nil, err
	}
	return time.Since(t0).Nanoseconds(), res, nil
}

// best returns the fastest of reps timed runs of fn, in nanoseconds —
// the standard way to suppress scheduling noise in microbenchmarks.
func best(reps int, fn func()) int64 {
	bestNS := int64(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0).Nanoseconds(); d < bestNS {
			bestNS = d
		}
	}
	return bestNS
}
