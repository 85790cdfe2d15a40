package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"attrank/internal/graph"
	"attrank/internal/sparse"
	"attrank/internal/synth"
)

// The Benchmark*100k* functions below produce BENCH_core.json: bench.sh
// runs them with -count 5 -cpu 1 and reduces every metric they report
// through b.ReportMetric to {median, min, max, runs}. A metric's unit
// is its field name in the file. Each body takes its network, so that
// TestBenchCoreFields can run it on a small corpus.

// benchNet is a ~100k-paper synthetic power-law citation network (the
// DBLP profile scaled ×5) shared by the benchmarks below.
var benchNet = sync.OnceValues(func() (*graph.Network, error) {
	return synth.Generate(synth.DBLP().Scale(5))
})

func bench100k(b *testing.B) *graph.Network {
	b.Helper()
	net, err := benchNet()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer() // the first call generates the network
	return net
}

// benchParams ranks with the paper's DBLP setting on every pool worker.
var benchParams = Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16, Workers: -1}

// reportNS reports the timed nanoseconds per op as the field.
func reportNS(b *testing.B, field string) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), field)
}

// coreBenches are the bodies behind BENCH_core.json.
var coreBenches = []func(*testing.B, *graph.Network){
	benchCompile,
	benchCompileDerived,
	benchSerialReference,
	func(b *testing.B, net *graph.Network) { benchStep(b, net, 1, "iter_fused_parts1_ns") },
	func(b *testing.B, net *graph.Network) { benchStep(b, net, 0, "iter_fused_ns") },
	benchStepLanes,
	benchRankCold,
	benchRankWarm,
}

// BenchmarkCompile100k times the compile pipeline a network's operator
// pays once for all its ranks (normalization, the degree-run relabeling,
// tile cutting) and reports the layout it produced.
func BenchmarkCompile100k(b *testing.B) { benchCompile(b, bench100k(b)) }

func benchCompile(b *testing.B, net *graph.Network) {
	var sum CompileStats
	for i := 0; i < b.N; i++ {
		op := Compile(net)
		cs, err := op.PrimeKernel()
		if err != nil {
			b.Fatal(err)
		}
		op.Close()
		sum.StochasticNS += cs.StochasticNS
		sum.RelabelNS += cs.RelabelNS
		sum.TiledNS += cs.TiledNS
		sum.WallNS += cs.WallNS
		sum.Layout = cs.Layout
	}
	n := float64(b.N)
	b.ReportMetric(float64(sum.StochasticNS)/n, "compile_stochastic_ns")
	b.ReportMetric(float64(sum.RelabelNS)/n, "compile_relabel_ns")
	b.ReportMetric(float64(sum.TiledNS)/n, "compile_tiled_ns")
	b.ReportMetric(float64(sum.WallNS)/n, "compile_pipeline_wall_ns")
	b.ReportMetric(float64(net.N()), "papers")
	b.ReportMetric(float64(net.Edges()), "edges")
	b.ReportMetric(sum.Layout.BytesPerNNZ, "bytes_per_nnz")
	b.ReportMetric(float64(sum.Layout.IndexBytes), "index_bytes")
	b.ReportMetric(float64(sum.Layout.Tiles), "tiles")
	b.ReportMetric(float64(sum.Layout.Windows), "windows")
	b.ReportMetric(sum.Layout.Occupancy, "tile_row_occupancy")
}

// BenchmarkCompileDerived100k times a full epoch's compile as the
// tracker runs it: the layout of the network plus three new papers,
// each citing one existing paper (the write_full workload's epoch
// shape), derived from the network's compiled layout
// (sparse.Stochastic.DeriveTiled) rather than compiled from scratch.
func BenchmarkCompileDerived100k(b *testing.B) { benchCompileDerived(b, bench100k(b)) }

func benchCompileDerived(b *testing.B, net *graph.Network) {
	prev := Compile(net)
	defer prev.Close()
	if _, err := prev.PrimeKernel(); err != nil {
		b.Fatal(err)
	}
	bld := graph.NewBuilderFrom(net)
	for i := 0; i < 3; i++ {
		idx, err := bld.AddPaper(fmt.Sprintf("bench-new-%d", i), net.MaxYear(), nil, "")
		if err != nil {
			b.Fatal(err)
		}
		bld.AddEdgeByIndex(idx, int32((2*i+1)*net.N()/7))
	}
	next, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	var wall int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := Compile(next)
		if err := op.compileFrom(prev); err != nil {
			b.Fatal(err)
		}
		if !op.compile.Derived {
			b.Fatal("the successor's compile ran from scratch")
		}
		wall += op.compile.WallNS
		b.StopTimer()
		op.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(wall)/float64(b.N), "compile_derived_ns")
}

// BenchmarkIteration100kSerialReference is one iteration of the serial
// CSC reference (three sweeps), the baseline the tiled kernel is
// measured against.
func BenchmarkIteration100kSerialReference(b *testing.B) { benchSerialReference(b, bench100k(b)) }

func benchSerialReference(b *testing.B, net *graph.Network) {
	s, err := net.StochasticMatrix()
	if err != nil {
		b.Fatal(err)
	}
	n := net.N()
	att := AttentionVector(net, net.MaxYear(), 3)
	rec := RecencyVector(net, net.MaxYear(), -0.16)
	x, next := sparse.Uniform(n), make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MulVec(next, x)
		for j := range next {
			next[j] = 0.5*next[j] + 0.3*att[j] + 0.2*rec[j]
		}
		_ = sparse.L1Diff(next, x)
	}
	reportNS(b, "iter_serial_ns")
}

// tiledState compiles net's operator and returns it with its tiled
// kernel and the storage-space attention and recency vectors.
func tiledState(b *testing.B, net *graph.Network) (*Operator, *sparse.TiledStochastic, []float64, []float64) {
	op := Compile(net)
	t, err := op.acquireTiled()
	if err != nil {
		b.Fatal(err)
	}
	now := net.MaxYear()
	return op, t, op.permutedAttention(now, 3), op.permutedRecency(now, -0.16)
}

// BenchmarkStep100kParts1 is one tiled iteration, the production
// kernel, on one worker.
func BenchmarkStep100kParts1(b *testing.B) { benchStep(b, bench100k(b), 1, "iter_fused_parts1_ns") }

// BenchmarkStep100kPool is one tiled iteration on every pool worker.
func BenchmarkStep100kPool(b *testing.B) { benchStep(b, bench100k(b), 0, "iter_fused_ns") }

// benchStep times Step on parts workers; 0 means the pool's size.
func benchStep(b *testing.B, net *graph.Network, parts int, field string) {
	op, t, att, rec := tiledState(b, net)
	defer op.Close()
	if parts == 0 {
		parts = op.pool.Size()
	}
	x, next := sparse.Uniform(net.N()), make([]float64, net.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Step(next, x, att, rec, 0.5, 0.3, 0.2, parts)
	}
	reportNS(b, field)
}

// BenchmarkStepLanes100k is one four-lane pass of the tiled kernel at
// parts 1, the step RankBatch runs for the cells of a sweep. StepLanes
// updates in place, so the ops are successive passes; a pass costs the
// same at any iterate.
func BenchmarkStepLanes100k(b *testing.B) { benchStepLanes(b, bench100k(b)) }

func benchStepLanes(b *testing.B, net *graph.Network) {
	op, t, att, rec := tiledState(b, net)
	defer op.Close()
	n := net.N()
	x, y := make([]float64, sparse.Lanes*n), make([][sparse.Lanes]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	var lanes sparse.LaneSet
	for l := range lanes.Live {
		lanes.Alpha[l], lanes.Beta[l], lanes.Gamma[l], lanes.Live[l] = 0.5, 0.3, 0.2, true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.StepLanes(x, y, att, rec, &lanes, 1)
	}
	reportNS(b, "iter_lanes4_ns")
}

// BenchmarkRank100kColdOperator is a full cold rank on a fresh
// operator: compile pipeline plus every iteration from uniform.
func BenchmarkRank100kColdOperator(b *testing.B) { benchRankCold(b, bench100k(b)) }

func benchRankCold(b *testing.B, net *graph.Network) {
	iters := 0
	for i := 0; i < b.N; i++ {
		op := Compile(net)
		res, err := op.Rank(net.MaxYear(), benchParams)
		if err != nil {
			b.Fatal(err)
		}
		iters = res.Iterations
		b.StopTimer()
		op.Close()
		b.StartTimer()
	}
	reportNS(b, "rank_cold_ns")
	b.ReportMetric(float64(iters), "rank_cold_iterations")
}

// BenchmarkRank100kWarmOperator measures a full re-rank through a compiled
// operator (matrix state and pool reused, warm-started from the previous
// scores) — the live-ingestion steady state.
func BenchmarkRank100kWarmOperator(b *testing.B) { benchRankWarm(b, bench100k(b)) }

func benchRankWarm(b *testing.B, net *graph.Network) {
	op := Compile(net)
	defer op.Close()
	p := benchParams
	res, err := op.Rank(net.MaxYear(), p)
	if err != nil {
		b.Fatal(err)
	}
	p.Start = res.Scores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = op.Rank(net.MaxYear(), p); err != nil {
			b.Fatal(err)
		}
	}
	reportNS(b, "rank_warm_ns")
	b.ReportMetric(float64(res.Iterations), "rank_warm_iterations")
}

// TestBenchCoreFields runs every BENCH_core.json benchmark body once on
// a 2k-paper corpus. The metrics they report must be exactly the
// committed file's fields, so a renamed metric, or a body that no
// longer runs, fails here instead of at the next bench.sh.
func TestBenchCoreFields(t *testing.T) {
	net, err := synth.Generate(synth.DBLP().Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	f := flag.Lookup("test.benchtime") // testing.Benchmark reads it
	defer f.Value.Set(f.Value.String())
	if err := f.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i, body := range coreBenches {
		r := testing.Benchmark(func(b *testing.B) { body(b, net) })
		if r.N == 0 {
			t.Fatalf("benchmark body %d failed", i)
		}
		for k := range r.Extra {
			got[k] = true
		}
	}
	data, err := os.ReadFile("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	var root map[string]any
	if err := json.Unmarshal(data, &root); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{} // the fields: object-valued top-level keys
	for k, v := range root {
		if _, ok := v.(map[string]any); ok {
			want[k] = true
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reported metrics %v, BENCH_core.json fields %v", got, want)
	}
}
