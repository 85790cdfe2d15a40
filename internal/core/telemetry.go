package core

import (
	"fmt"
	"time"

	"attrank/internal/obs"
)

// The core metric catalogue (see DESIGN.md §9): convergence behaviour
// of the power method (Theorem 1 observed in production rather than
// assumed), compilation churn of operators (one per network), and rank
// latency split by warm vs cold start.
var (
	mRankIterations = obs.NewHistogram("attrank_core_rank_iterations",
		"Power-method iterations per Rank call (warm starts converge in few).",
		obs.ExpBuckets(1, 2, 9))
	mIterationResidual = obs.NewHistogram("attrank_core_iteration_residual",
		"L1 residual after each power iteration (the per-iteration convergence signal).",
		obs.ExpBuckets(1e-14, 10, 15))
	mFinalResidual = obs.NewGauge("attrank_core_rank_final_residual",
		"L1 residual of the most recently completed Rank.")
	mKernelCompiles = obs.NewCounter("attrank_core_kernel_compiles_total",
		"Citation-matrix normalizations into ranking-operator form (one per network, again after Close).")
	mRankSeconds = obs.NewHistogramVec("attrank_core_rank_seconds",
		"Full Rank wall time, labeled by start=cold (uniform start) or start=warm.",
		obs.ExpBuckets(1e-4, 2, 20), "start")
	mRanksTotal = obs.NewCounterVec("attrank_core_ranks_total",
		"Completed Rank calls by convergence outcome.", "converged")
	mVectorEvictions = obs.NewCounter("attrank_core_vector_cache_evictions_total",
		"Single-entry LRU evictions from the attention/recency vector caches.")

	// Layout telemetry for the cache-aware tiled kernel (DESIGN.md §13):
	// bytes the hot loop moves per nonzero, the tile population, and the
	// one-off relabeling cost, so the bandwidth budget is visible in
	// /metrics next to the rank latencies it buys.
	mLayoutBytesPerNNZ = obs.NewGauge("attrank_core_layout_bytes_per_nnz",
		"Total tiled-layout footprint (values + compressed indices + headers) per nonzero.")
	mLayoutTiles = obs.NewGauge("attrank_core_layout_tiles",
		"Row-block tiles in the compiled layout.")
	mLayoutWindows = obs.NewGauge("attrank_core_layout_windows",
		"64Ki column windows in the compiled layout (one uint16 word per entry, window-local).")
	mLayoutOccupancy = obs.NewGauge("attrank_core_layout_row_occupancy",
		"Fraction of matrix rows holding at least one nonzero.")
	mLayoutRelabelSeconds = obs.NewGauge("attrank_core_layout_relabel_seconds",
		"Wall time of the degree-run relabeling pass in the last kernel compile.")
	mLayoutCompileSeconds = obs.NewGauge("attrank_core_layout_compile_seconds",
		"Wall time of the whole kernel compile pipeline.")
)

// observeLayout publishes the compile pipeline's layout statistics.
func observeLayout(cs CompileStats) {
	mLayoutBytesPerNNZ.Set(cs.Layout.BytesPerNNZ)
	mLayoutTiles.Set(float64(cs.Layout.Tiles))
	mLayoutWindows.Set(float64(cs.Layout.Windows))
	mLayoutOccupancy.Set(cs.Layout.Occupancy)
	mLayoutRelabelSeconds.Set(float64(cs.RelabelNS) / 1e9)
	mLayoutCompileSeconds.Set(float64(cs.WallNS) / 1e9)
}

// startLabel renders the warm/cold label for mRankSeconds.
func startLabel(warm bool) string {
	if warm {
		return "warm"
	}
	return "cold"
}

// convergedLabel renders the outcome label for mRanksTotal.
func convergedLabel(ok bool) string {
	if ok {
		return "true"
	}
	return "false"
}

// TelemetryLine summarizes this process's ranking telemetry in one line,
// for CLI output after a rank. Counts are process-wide: a single-shot
// CLI run reports exactly its own work.
func TelemetryLine() string {
	ranks := mRankIterations.Count()
	iters := mRankIterations.Sum()
	dur := mRankSeconds.With("cold").Sum() + mRankSeconds.With("warm").Sum()
	return fmt.Sprintf("telemetry: ranks=%d iterations=%.0f kernel_compiles=%d final_residual=%.3e rank_time=%s",
		ranks, iters, mKernelCompiles.Value(), mFinalResidual.Value(),
		time.Duration(dur*float64(time.Second)).Round(time.Microsecond))
}
