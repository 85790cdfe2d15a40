package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/ingest"
	"attrank/internal/sparse"
	"attrank/internal/synth"
)

// The -ingest benchmark measures the incremental-ranking path (DESIGN.md
// §14) against the warm full re-rank it replaces, at two levels:
//
//   - Library level: steady-state single-citation updates on a synthetic
//     corpus. The full arm compacts base+edge and runs a warm-started
//     full rank per write (what every ingest epoch cost before the push
//     path); the push arm feeds one core.Pusher the same writes and
//     settles each. Correctness is asserted, not sampled optimistically:
//     every checkEvery writes the push scores are compared against a
//     cold exact rank of the same graph and must sit within the
//     pusher's own error bound, a second pusher must reproduce the
//     first bit for bit (the follower-replay guarantee), and the
//     reconciliation rank of a chain that pushed must be bit-identical
//     to a shadow chain that never pushed.
//
//   - Ingest level: two live Ingesters (push on / push off) absorb the
//     same single-citation write stream with RerankAfter=1, measuring
//     sustained writes/sec with a ranking published after every write,
//     WAL fsync included.
//
// Any failed correctness assertion is an error and a non-zero exit;
// TestIngestGates runs every gate at 5k papers. The committed
// BENCH_ingest.json comes from bench.sh (GOMAXPROCS=1, 100k papers).

type latQuantiles struct {
	BestNS int64 `json:"best_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	MeanNS int64 `json:"mean_ns"`
}

type ingestReport struct {
	GeneratedAt string  `json:"generated_at"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	Profile     string  `json:"profile"`
	Papers      int     `json:"papers"`
	Edges       int     `json:"edges"`
	Writes      int     `json:"writes"`
	PushTol     float64 `json:"push_tol"`

	// Single-citation re-rank latency: warm full rank (compaction
	// excluded, rank only — the conservative baseline) vs push
	// (seed + settle, publication copy excluded and reported apart).
	FullWarm latQuantiles `json:"full_warm_rank"`
	Push     latQuantiles `json:"push_rerank"`
	// SpeedupP50 is the headline: warm-full p50 over push p50. The
	// acceptance bar is ≥10×.
	SpeedupP50  float64 `json:"speedup_p50"`
	SpeedupBest float64 `json:"speedup_best"`
	// ScoreCopyNS is the per-publication O(n) score snapshot the ingest
	// layer pays on top of the push itself.
	ScoreCopyNS int64 `json:"score_copy_ns"`

	// Push-path accounting over the whole write stream. Reconciles counts
	// the writes that blew a budget and went through the full path.
	PushesTotal  int64   `json:"pushes_total"`
	TouchedFinal int     `json:"touched_final"`
	Reconciles   int     `json:"reconciles"`
	FinalBound   float64 `json:"final_residual_bound"`

	// Correctness: exact-deviation checks (cold rank vs push scores)
	// and the two bit-equality gates.
	DeviationChecks       int     `json:"deviation_checks"`
	MaxDeviation          float64 `json:"max_l1_deviation"`
	MaxBoundAtCheck       float64 `json:"max_bound_at_check"`
	ReplayBitIdentical    bool    `json:"replay_bit_identical"`
	ReconcileBitIdentical bool    `json:"reconcile_bit_identical"`

	// Ingest-level writes/sec with a ranking published per write
	// (RerankAfter=1), WAL fsync included.
	IngestWrites       int     `json:"ingest_writes"`
	IngestFullPerSec   float64 `json:"ingest_full_writes_per_sec"`
	IngestPushPerSec   float64 `json:"ingest_push_writes_per_sec"`
	IngestSpeedup      float64 `json:"ingest_speedup"`
	IngestPushEpochs   uint64  `json:"ingest_push_epochs"`
	IngestReconciles   uint64  `json:"ingest_reconcile_epochs"`
	IngestFinalStale   float64 `json:"ingest_final_staleness"`
	IngestStaleBounded bool    `json:"ingest_staleness_bounded"`
}

// newEdges picks writes new citation edges on net, deterministically:
// distinct endpoints, not already present, citing no older than cited
// (citations flow backward in time), no duplicates within the pick.
func newEdges(net *graph.Network, writes int, seed int64) ([][2]int32, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int32(net.N())
	picked := make(map[[2]int32]struct{}, writes)
	edges := make([][2]int32, 0, writes)
	for tries := 0; len(edges) < writes; tries++ {
		if tries > 1000*writes {
			return nil, fmt.Errorf("ingest bench: could not find %d fresh edges (corpus too dense?)", writes)
		}
		citing, cited := rng.Int31n(n), rng.Int31n(n)
		if citing == cited || net.Year(citing) < net.Year(cited) {
			continue
		}
		key := [2]int32{citing, cited}
		if _, ok := picked[key]; ok {
			continue
		}
		if net.HasEdge(citing, cited) {
			continue
		}
		picked[key] = struct{}{}
		edges = append(edges, key)
	}
	return edges, nil
}

func quantiles(lat []int64) latQuantiles {
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) int64 { return s[int(q*float64(len(s)-1))] }
	var sum int64
	for _, v := range s {
		sum += v
	}
	return latQuantiles{
		BestNS: s[0], P50NS: at(0.50), P90NS: at(0.90), P99NS: at(0.99),
		MeanNS: sum / int64(len(s)),
	}
}

// compactWith returns net plus the given extra edges, via the same
// builder path ingest compaction uses.
func compactWith(net *graph.Network, edges [][2]int32) (*graph.Network, error) {
	b := graph.NewBuilderFrom(net)
	for _, e := range edges {
		b.AddEdge(net.Paper(e[0]).ID, net.Paper(e[1]).ID)
	}
	return b.Build()
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func runIngest(papers, writes, fullReps, checkEvery, ingestWrites int, out string) error {
	const pushTol = core.DefaultPushTol
	prof := dblp(papers)
	fmt.Printf("generating %s network with %d papers…\n", prof.Name, prof.Papers)
	base, err := synth.GenerateSeeded(prof, 1)
	if err != nil {
		return err
	}
	now := base.MaxYear()
	p := core.Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16, Workers: 1}
	r := ingestReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Profile:     prof.Name,
		Papers:      base.N(),
		Edges:       base.Edges(),
		Writes:      writes,
		PushTol:     pushTol,
	}

	edges, err := newEdges(base, writes, 1)
	if err != nil {
		return err
	}

	// Exact scores of the base corpus: the anchor both arms start from.
	baseRes, err := core.Rank(base, now, p)
	if err != nil {
		return err
	}

	// ---- Full arm: warm full rank per single-citation write. ----
	fmt.Printf("full arm: %d warm single-citation re-ranks…\n", fullReps)
	fullLat := make([]int64, 0, fullReps)
	for i := 0; i < fullReps && i < len(edges); i++ {
		netPlus, err := compactWith(base, edges[i:i+1])
		if err != nil {
			return err
		}
		warm := p
		warm.Start = baseRes.Scores
		op := core.Compile(netPlus)
		if _, err := op.Rank(now, warm); err != nil { // prime kernel + vector caches
			return err
		}
		bestNS := int64(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := op.Rank(now, warm); err != nil {
				return err
			}
			if d := time.Since(t0).Nanoseconds(); d < bestNS {
				bestNS = d
			}
		}
		fullLat = append(fullLat, bestNS)
	}
	r.FullWarm = quantiles(fullLat)

	// ---- Push arm: the production loop in miniature. One pusher absorbs
	// every write under the default budgets; when a settle blows a budget
	// the write reconciles through the tracker's warm-start chain (the
	// exact full path) and the pusher reseeds from the result — the same
	// policy internal/ingest runs.
	fmt.Printf("push arm: %d single-citation pushes (tol %g)…\n", writes, pushTol)
	pcfg := core.PushConfig{Tol: pushTol}
	tr, err := core.NewTracker(p)
	if err != nil {
		return err
	}
	if err := tr.Seed(base, baseRes.Scores); err != nil {
		return err
	}
	pu, err := core.NewPusher(base, now, p, pcfg, baseRes.Scores)
	if err != nil {
		return err
	}
	shadow, err := core.NewPusher(base, now, p, pcfg, baseRes.Scores) // replay determinism witness
	if err != nil {
		return err
	}
	pushLat := make([]int64, 0, writes)
	var boundaries []int // write indices (1-based) that reconciled
	var pushesTotal int64
	var lastTouched int
	r.ReplayBitIdentical = true
	for i, e := range edges {
		t0 := time.Now()
		err := pu.AddCitation(e[0], e[1])
		var st core.PushStats
		if err == nil {
			st, err = pu.Settle()
		}
		if err != nil {
			if !errors.Is(err, core.ErrNeedFull) {
				return fmt.Errorf("push write %d: %w", i, err)
			}
			// Reconciliation epoch: warm full rank over the compacted
			// graph (current write included), reseed both pushers.
			curNet, cErr := compactWith(base, edges[:i+1])
			if cErr != nil {
				return cErr
			}
			res, uErr := tr.Update(curNet, now)
			if uErr != nil {
				return uErr
			}
			if pu, err = core.NewPusher(curNet, now, p, pcfg, res.Scores); err != nil {
				return err
			}
			if shadow, err = core.NewPusher(curNet, now, p, pcfg, res.Scores); err != nil {
				return err
			}
			boundaries = append(boundaries, i+1)
			continue
		}
		pushLat = append(pushLat, time.Since(t0).Nanoseconds())
		pushesTotal += int64(st.Pushes)
		lastTouched = st.Touched
		r.FinalBound = st.Bound
		if err := shadow.AddCitation(e[0], e[1]); err != nil {
			return fmt.Errorf("shadow diverged at write %d: %w", i, err)
		}
		if _, err := shadow.Settle(); err != nil {
			return fmt.Errorf("shadow diverged at write %d: %w", i, err)
		}
		if checkEvery > 0 && (i+1)%checkEvery == 0 {
			exactNet, err := compactWith(base, edges[:i+1])
			if err != nil {
				return err
			}
			exact, err := core.Rank(exactNet, now, p)
			if err != nil {
				return err
			}
			dev := sparse.L1Diff(pu.Scores(), exact.Scores)
			bound := pu.Bound()
			r.DeviationChecks++
			r.MaxDeviation = math.Max(r.MaxDeviation, dev)
			r.MaxBoundAtCheck = math.Max(r.MaxBoundAtCheck, bound)
			if dev > bound+1e-9 {
				return fmt.Errorf("ingest bench: write %d: L1 deviation %.3g exceeds the push bound %.3g", i+1, dev, bound)
			}
			if !bitsEqual(pu.Scores(), shadow.Scores()) {
				r.ReplayBitIdentical = false
				return fmt.Errorf("ingest bench: write %d: two pushers fed the same sequence diverged", i+1)
			}
		}
	}
	if len(pushLat) == 0 {
		return fmt.Errorf("ingest bench: every write reconciled; nothing to measure")
	}
	r.Push = quantiles(pushLat)
	r.PushesTotal = pushesTotal
	r.TouchedFinal = lastTouched
	r.Reconciles = len(boundaries)
	r.SpeedupP50 = float64(r.FullWarm.P50NS) / float64(r.Push.P50NS)
	r.SpeedupBest = float64(r.FullWarm.BestNS) / float64(r.Push.BestNS)
	t0 := time.Now()
	_ = pu.CopyScores()
	r.ScoreCopyNS = time.Since(t0).Nanoseconds()

	// ---- Reconciliation bit-equality. ----
	// The chain that pushed must land, at every reconciliation boundary
	// and at the end, on exactly the scores of a shadow chain that never
	// pushed: push epochs must leave the warm-start chain untouched.
	finalNet, err := compactWith(base, edges)
	if err != nil {
		return err
	}
	viaPushChain, err := tr.Update(finalNet, now) // the pushed chain's tracker
	if err != nil {
		return err
	}
	tr2, err := core.NewTracker(p)
	if err != nil {
		return err
	}
	if err := tr2.Seed(base, baseRes.Scores); err != nil {
		return err
	}
	for _, b := range boundaries { // full-only chain: same boundaries, no pushes between
		bNet, err := compactWith(base, edges[:b])
		if err != nil {
			return err
		}
		if _, err := tr2.Update(bNet, now); err != nil {
			return err
		}
	}
	fullOnlyChain, err := tr2.Update(finalNet, now)
	if err != nil {
		return err
	}
	r.ReconcileBitIdentical = bitsEqual(viaPushChain.Scores, fullOnlyChain.Scores)
	if !r.ReconcileBitIdentical {
		return fmt.Errorf("ingest bench: reconciliation rank differs between the pushed and the full-only chain")
	}
	// And the reconciliation really is exact: within ranking tolerance
	// of a cold rank of the same graph.
	exactFinal, err := core.Rank(finalNet, now, p)
	if err != nil {
		return err
	}
	if dev := sparse.L1Diff(viaPushChain.Scores, exactFinal.Scores); dev > 1e-6 {
		return fmt.Errorf("ingest bench: reconciliation deviates %.3g from the exact rank", dev)
	}

	// ---- Ingest-level arm: live writes/sec, rank-per-write. ----
	if ingestWrites > len(edges) {
		ingestWrites = len(edges)
	}
	r.IngestWrites = ingestWrites
	fmt.Printf("ingest arm: %d live writes, full vs push…\n", ingestWrites)
	fullPerSec, _, _, _, err := runIngestArm(base, p, edges[:ingestWrites], 0)
	if err != nil {
		return err
	}
	pushPerSec, pushEpochs, reconciles, finalStale, err := runIngestArm(base, p, edges[:ingestWrites], pushTol)
	if err != nil {
		return err
	}
	r.IngestFullPerSec, r.IngestPushPerSec = fullPerSec, pushPerSec
	r.IngestSpeedup = pushPerSec / fullPerSec
	r.IngestPushEpochs = pushEpochs
	r.IngestReconciles = reconciles
	r.IngestFinalStale = finalStale
	r.IngestStaleBounded = finalStale <= core.DefaultPushMaxResidual
	if !r.IngestStaleBounded {
		return fmt.Errorf("ingest bench: final staleness %.3g exceeds the residual budget", finalStale)
	}

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("full warm rank: best=%s p50=%s p99=%s\n",
		time.Duration(r.FullWarm.BestNS), time.Duration(r.FullWarm.P50NS), time.Duration(r.FullWarm.P99NS))
	fmt.Printf("push re-rank:   best=%s p50=%s p99=%s (+%s score copy)\n",
		time.Duration(r.Push.BestNS), time.Duration(r.Push.P50NS), time.Duration(r.Push.P99NS), time.Duration(r.ScoreCopyNS))
	fmt.Printf("speedup: %.0fx at p50 (%.0fx best); %d pushes over %d writes (%d reconciles), %d nodes touched\n",
		r.SpeedupP50, r.SpeedupBest, r.PushesTotal, r.Writes, r.Reconciles, r.TouchedFinal)
	fmt.Printf("exactness: %d checks, max deviation %.3g (bound %.3g), replay bit-identical, reconcile bit-identical\n",
		r.DeviationChecks, r.MaxDeviation, r.MaxBoundAtCheck)
	fmt.Printf("live ingest: full=%.1f writes/s push=%.1f writes/s (%.1fx), %d push epochs, %d reconciles, staleness %.3g\n",
		r.IngestFullPerSec, r.IngestPushPerSec, r.IngestSpeedup, r.IngestPushEpochs, r.IngestReconciles, r.IngestFinalStale)
	fmt.Printf("wrote %s\n", out)
	return nil
}

// epochWait bounds how long runIngestArm waits for one write's epoch.
// At 100k papers a full epoch publishes in about a third of a second
// (ingest_full_writes_per_sec in BENCH_ingest.json). Tests shorten it.
var epochWait = time.Minute

// runIngestArm drives one live Ingester through the write stream, one
// citation per batch with RerankAfter=1, waiting for each write's epoch
// to publish before the next — the rank-per-write regime where the push
// path matters most.
func runIngestArm(base *graph.Network, p core.Params, edges [][2]int32, pushTol float64) (perSec float64, pushEpochs, reconciles uint64, staleness float64, err error) {
	dir, err := os.MkdirTemp("", "attrank-bench-ingest-*")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	ing, err := ingest.Open(base, ingest.Config{
		Dir:           dir,
		Params:        p,
		RerankAfter:   1,
		RerankEvery:   time.Millisecond,
		SnapshotEvery: -1,
		PushTol:       pushTol,
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer ing.Close()
	t0 := time.Now()
	for i, e := range edges {
		m := ingest.CitationMut{Citing: base.Paper(e[0]).ID, Cited: base.Paper(e[1]).ID}
		if _, err := ing.AddCitation(m); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("live write %d: %w", i, err)
		}
		want := uint64(i + 2) // epoch 1 is the initial rank
		// A failed re-rank is only logged by the Ingester, and its epoch
		// then never comes: bound the wait instead of spinning forever.
		deadline := time.Now().Add(epochWait)
		for st := ing.Status(); st.Epoch < want; st = ing.Status() {
			if time.Now().After(deadline) {
				return 0, 0, 0, 0, fmt.Errorf("live write %d: epoch %d not published within %s (status %+v)", i, want, epochWait, st)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	wall := time.Since(t0)
	st := ing.Status()
	full := st.Epoch - 1 - st.PushEpochs // epochs beyond the initial one that ranked fully
	return float64(len(edges)) / wall.Seconds(), st.PushEpochs, full, st.Staleness, nil
}
