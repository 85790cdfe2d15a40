package ingest

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/sparse"
	"attrank/internal/synth"
)

// The Benchmark*100k* functions below produce BENCH_ingest.json: the
// incremental-ranking path (DESIGN.md §14) against the warm full
// re-rank it replaces, on a synthetic DBLP-profile corpus. bench.sh
// runs them with -count 5 -cpu 1 and reduces every metric they report
// through b.ReportMetric to {median, min, max, runs}; a metric's unit
// is its field name in the file. The push arm's correctness gates run
// inside its benchmark and fail it through b.Fatal; TestIngestGates
// runs the same arms at 5k papers.

// benchCorpus is a synthetic corpus and the exact ranking both arms
// start from.
type benchCorpus struct {
	base  *graph.Network
	now   int
	p     core.Params
	exact *core.Result
}

func newBenchCorpus(papers int) (*benchCorpus, error) {
	prof := synth.DBLP()
	base, err := synth.GenerateSeeded(prof.Scale(float64(papers)/float64(prof.Papers)), 1)
	if err != nil {
		return nil, err
	}
	c := &benchCorpus{
		base: base,
		now:  base.MaxYear(),
		p:    core.Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16, Workers: 1},
	}
	c.exact, err = core.Rank(base, c.now, c.p)
	return c, err
}

var corpus100k = sync.OnceValues(func() (*benchCorpus, error) { return newBenchCorpus(100000) })

func bench100k(b *testing.B) *benchCorpus {
	b.Helper()
	c, err := corpus100k()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer() // the first call generates and ranks the corpus
	return c
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
			return nil, fmt.Errorf("could not find %d fresh edges (corpus too dense?)", writes)
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

// setTimer switches a benchmark's timer; under a test it does nothing,
// so the arms below run the same code in both.
func setTimer(tb testing.TB, on bool) {
	if b, ok := tb.(*testing.B); ok {
		if on {
			b.StartTimer()
		} else {
			b.StopTimer()
		}
	}
}

// fullArm times a warm full re-rank per single-citation write: the
// base corpus plus that one citation, compiled and primed untimed, then
// ranked warm from the base corpus's exact scores. Compaction and
// compile are excluded, so this is the conservative baseline the push
// path is measured against.
func fullArm(tb testing.TB, c *benchCorpus, edges [][2]int32) error {
	warm := c.p
	warm.Start = c.exact.Scores
	setTimer(tb, false)
	for _, e := range edges {
		net, err := compactWith(c.base, [][2]int32{e})
		if err != nil {
			return err
		}
		op := core.Compile(net)
		if _, err := op.Rank(c.now, warm); err != nil { // prime kernel + vector caches
			return err
		}
		setTimer(tb, true)
		_, err = op.Rank(c.now, warm)
		setTimer(tb, false)
		op.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// pushArmStats is what pushArm measured over its write stream.
type pushArmStats struct {
	pushWrites int           // writes that pushed; the rest reconciled
	pushTime   time.Duration // seed + settle of those writes
	pushes     int64
	reconciles int
	checks     int
	maxDev     float64 // largest L1 distance from a cold exact rank at a check
	maxBound   float64 // largest pusher bound at a check
	scoreCopy  time.Duration
}

// pushArm is the production push loop in miniature, with its gates. One
// pusher absorbs every write under the default budgets; a write whose
// settle blows a budget reconciles through the tracker's warm-start
// chain (the exact full path) and the pusher reseeds from the result —
// the policy internal/ingest runs. Every checkEvery writes the pushed
// scores must sit within the pusher's own bound of a cold exact rank,
// and a second pusher fed the same writes must hold the same bits (the
// follower-replay guarantee). At the end the pushed chain's
// reconciliation rank must be == to a chain that never pushed, and
// within 1e-6 of exact. A failed gate is an error. Under a benchmark
// the timer runs around each push attempt only.
func pushArm(tb testing.TB, c *benchCorpus, edges [][2]int32, checkEvery int) (pushArmStats, error) {
	var st pushArmStats
	p, pcfg := c.p, core.PushConfig{Tol: core.DefaultPushTol}
	tr, err := core.NewTracker(p)
	if err != nil {
		return st, err
	}
	if err := tr.Seed(c.base, c.exact.Scores); err != nil {
		return st, err
	}
	pu, err := core.NewPusher(c.base, c.now, p, pcfg, c.exact.Scores)
	if err != nil {
		return st, err
	}
	shadow, err := core.NewPusher(c.base, c.now, p, pcfg, c.exact.Scores) // replay witness
	if err != nil {
		return st, err
	}
	var boundaries []int // write counts at which the chain reconciled
	setTimer(tb, false)
	for i, e := range edges {
		setTimer(tb, true)
		t0 := time.Now()
		err := pu.AddCitation(e[0], e[1])
		var ps core.PushStats
		if err == nil {
			ps, err = pu.Settle()
		}
		d := time.Since(t0)
		setTimer(tb, false)
		if err != nil {
			if !errors.Is(err, core.ErrNeedFull) {
				return st, fmt.Errorf("push write %d: %w", i, err)
			}
			// Reconciliation epoch: warm full rank over the compacted
			// graph (current write included), reseed both pushers.
			net, err := compactWith(c.base, edges[:i+1])
			if err != nil {
				return st, err
			}
			res, err := tr.Update(net, c.now)
			if err != nil {
				return st, err
			}
			if pu, err = core.NewPusher(net, c.now, p, pcfg, res.Scores); err != nil {
				return st, err
			}
			if shadow, err = core.NewPusher(net, c.now, p, pcfg, res.Scores); err != nil {
				return st, err
			}
			boundaries = append(boundaries, i+1)
			continue
		}
		st.pushWrites++
		st.pushTime += d
		st.pushes += int64(ps.Pushes)
		if err := shadow.AddCitation(e[0], e[1]); err != nil {
			return st, fmt.Errorf("shadow diverged at write %d: %w", i, err)
		}
		if _, err := shadow.Settle(); err != nil {
			return st, fmt.Errorf("shadow diverged at write %d: %w", i, err)
		}
		if checkEvery > 0 && (i+1)%checkEvery == 0 {
			net, err := compactWith(c.base, edges[:i+1])
			if err != nil {
				return st, err
			}
			exact, err := core.Rank(net, c.now, p)
			if err != nil {
				return st, err
			}
			dev, bound := sparse.L1Diff(pu.Scores(), exact.Scores), pu.Bound()
			st.checks++
			st.maxDev, st.maxBound = math.Max(st.maxDev, dev), math.Max(st.maxBound, bound)
			if dev > bound+1e-9 {
				return st, fmt.Errorf("write %d: L1 deviation %.3g exceeds the push bound %.3g", i+1, dev, bound)
			}
			if !bitsEqual(pu.Scores(), shadow.Scores()) {
				return st, fmt.Errorf("write %d: two pushers fed the same sequence diverged", i+1)
			}
		}
	}
	st.reconciles = len(boundaries)
	t0 := time.Now()
	_ = pu.CopyScores()
	st.scoreCopy = time.Since(t0)

	// The chain that pushed must land on exactly the scores of a chain
	// that never pushed but reconciled at the same writes: push epochs
	// leave the warm-start chain untouched.
	finalNet, err := compactWith(c.base, edges)
	if err != nil {
		return st, err
	}
	viaPushChain, err := tr.Update(finalNet, c.now)
	if err != nil {
		return st, err
	}
	fullOnly, err := core.NewTracker(p)
	if err != nil {
		return st, err
	}
	if err := fullOnly.Seed(c.base, c.exact.Scores); err != nil {
		return st, err
	}
	for _, b := range boundaries {
		net, err := compactWith(c.base, edges[:b])
		if err != nil {
			return st, err
		}
		if _, err := fullOnly.Update(net, c.now); err != nil {
			return st, err
		}
	}
	viaFullChain, err := fullOnly.Update(finalNet, c.now)
	if err != nil {
		return st, err
	}
	if !bitsEqual(viaPushChain.Scores, viaFullChain.Scores) {
		return st, errors.New("reconciliation rank differs between the pushed and the full-only chain")
	}
	exact, err := core.Rank(finalNet, c.now, p)
	if err != nil {
		return st, err
	}
	if dev := sparse.L1Diff(viaPushChain.Scores, exact.Scores); dev > 1e-6 {
		return st, fmt.Errorf("reconciliation deviates %.3g from the exact rank", dev)
	}
	return st, nil
}

// epochWait bounds how long liveArm waits for one write's epoch. At
// 100k papers a full epoch publishes in about a tenth of a second
// (ingest_full_writes_per_sec in BENCH_ingest.json). Tests shorten it.
var epochWait = time.Minute

// liveArm drives one live Ingester, with the push path on when pushTol
// > 0, through the write stream: one citation per batch with
// RerankAfter=1, waiting for each write's epoch to publish before the
// next — the rank-per-write regime where the push path matters most.
// It returns the final status and the writes' wall time, WAL fsync
// included; under a benchmark only the writes run with the timer on.
// With the push path on, the final staleness must stay within
// core.DefaultPushMaxResidual.
func liveArm(tb testing.TB, base *graph.Network, p core.Params, edges [][2]int32, pushTol float64) (Status, time.Duration, error) {
	setTimer(tb, false)
	dir, err := os.MkdirTemp("", "attrank-ingest-arm-*")
	if err != nil {
		return Status{}, 0, err
	}
	defer os.RemoveAll(dir)
	ing, err := Open(base, Config{
		Dir:           dir,
		Params:        p,
		RerankAfter:   1,
		RerankEvery:   time.Millisecond,
		SnapshotEvery: -1,
		PushTol:       pushTol,
	})
	if err != nil {
		return Status{}, 0, err
	}
	defer ing.Close()
	setTimer(tb, true)
	t0 := time.Now()
	for i, e := range edges {
		m := CitationMut{Citing: base.Paper(e[0]).ID, Cited: base.Paper(e[1]).ID}
		if _, err := ing.AddCitation(m); err != nil {
			return Status{}, 0, fmt.Errorf("live write %d: %w", i, err)
		}
		want := uint64(i + 2) // epoch 1 is the initial rank
		// A failed re-rank is only logged by the Ingester, and its epoch
		// then never comes: bound the wait instead of spinning forever.
		deadline := time.Now().Add(epochWait)
		for st := ing.Status(); st.Epoch < want; st = ing.Status() {
			if time.Now().After(deadline) {
				return Status{}, 0, fmt.Errorf("live write %d: epoch %d not published within %s (status %+v)", i, want, epochWait, st)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	wall := time.Since(t0)
	setTimer(tb, false)
	st := ing.Status()
	if pushTol > 0 && st.Staleness > core.DefaultPushMaxResidual {
		return st, wall, fmt.Errorf("final staleness %.3g exceeds the residual budget", st.Staleness)
	}
	return st, wall, nil
}

// ingestBenches are the bodies behind BENCH_ingest.json.
var ingestBenches = []func(*testing.B, *benchCorpus){
	benchFullRerank,
	benchPushRerank,
	func(b *testing.B, c *benchCorpus) { benchLive(b, c, "full") },
	func(b *testing.B, c *benchCorpus) { benchLive(b, c, "push") },
}

// BenchmarkFullRerank100k is the full arm: one op is a warm full
// re-rank after one single-citation write.
func BenchmarkFullRerank100k(b *testing.B) { benchFullRerank(b, bench100k(b)) }

func benchFullRerank(b *testing.B, c *benchCorpus) {
	edges, err := newEdges(c.base, b.N, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := fullArm(b, c, edges); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "full_warm_rank_ns")
	b.ReportMetric(float64(c.base.N()), "papers")
	b.ReportMetric(float64(c.base.Edges()), "edges")
}

// BenchmarkPushRerank100k is the push arm with its gates: one op is one
// single-citation write. push_rerank_ns averages the writes that pushed;
// the writes that reconciled count in reconcile_pct.
func BenchmarkPushRerank100k(b *testing.B) { benchPushRerank(b, bench100k(b)) }

func benchPushRerank(b *testing.B, c *benchCorpus) {
	edges, err := newEdges(c.base, b.N, 1)
	if err != nil {
		b.Fatal(err)
	}
	st, err := pushArm(b, c, edges, 50)
	if err != nil {
		b.Fatal(err)
	}
	per := float64(max(st.pushWrites, 1))
	b.ReportMetric(float64(st.pushTime.Nanoseconds())/per, "push_rerank_ns")
	b.ReportMetric(float64(st.pushes)/per, "pushes_per_write")
	b.ReportMetric(100*float64(st.reconciles)/float64(b.N), "reconcile_pct")
	b.ReportMetric(st.maxDev, "max_l1_deviation")
	b.ReportMetric(st.maxBound, "max_bound_at_check")
	b.ReportMetric(float64(st.scoreCopy.Nanoseconds()), "score_copy_ns")
}

// BenchmarkIngestLive100k is the live rank-per-write Ingester, push path
// off and on: one op is one write with its published epoch.
func BenchmarkIngestLive100k(b *testing.B) {
	c := bench100k(b)
	for _, arm := range []string{"full", "push"} {
		b.Run(arm, func(b *testing.B) { benchLive(b, c, arm) })
	}
}

func benchLive(b *testing.B, c *benchCorpus, arm string) {
	edges, err := newEdges(c.base, b.N, 1)
	if err != nil {
		b.Fatal(err)
	}
	pushTol := 0.0
	if arm == "push" {
		pushTol = core.DefaultPushTol
	}
	st, wall, err := liveArm(b, c.base, c.p, edges, pushTol)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/wall.Seconds(), "ingest_"+arm+"_writes_per_sec")
	if arm == "push" {
		b.ReportMetric(100*float64(st.Epoch-1-st.PushEpochs)/float64(b.N), "ingest_reconcile_pct")
		b.ReportMetric(st.Staleness, "ingest_final_staleness")
	}
}

// TestIngestGates runs the arms at 5k papers: deviation within the push
// bound every 50 writes, replay bit-identity, reconcile == full-only
// chain, reconcile within 1e-6 of exact and bounded live staleness are
// errors from the arms. The deviation and reconcile gates must also
// have been reached.
func TestIngestGates(t *testing.T) {
	c, err := newBenchCorpus(5000)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := newEdges(c.base, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fullArm(t, c, edges[:5]); err != nil {
		t.Fatal(err)
	}
	st, err := pushArm(t, c, edges, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := liveArm(t, c.base, c.p, edges[:40], 0); err != nil {
		t.Fatal(err)
	}
	live, _, err := liveArm(t, c.base, c.p, edges[:40], core.DefaultPushTol)
	if err != nil {
		t.Fatal(err)
	}
	if liveReconciles := live.Epoch - 1 - live.PushEpochs; st.checks == 0 || st.reconciles == 0 || liveReconciles == 0 {
		t.Errorf("a gate never ran: %d deviation checks, %d reconciles, %d live reconciles",
			st.checks, st.reconciles, liveReconciles)
	}
}

// TestIngestArmWaitIsBounded: a write whose epoch never publishes (here
// a duplicate citation, which ranks nothing) ends the arm with an error
// naming the write instead of spinning forever.
func TestIngestArmWaitIsBounded(t *testing.T) {
	defer func(d time.Duration) { epochWait = d }(epochWait)
	epochWait = 100 * time.Millisecond
	c, err := newBenchCorpus(500)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := newEdges(c.base, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = liveArm(t, c.base, c.p, [][2]int32{edges[0], edges[0]}, 0)
	if err == nil || !strings.Contains(err.Error(), "live write 1") {
		t.Fatalf("err = %v, want a bounded wait on live write 1", err)
	}
}

// TestBenchIngestFields runs every BENCH_ingest.json benchmark body once
// on a 2k-paper corpus. The metrics they report must be exactly the
// committed file's fields, so a renamed metric, or a body that no
// longer runs, fails here instead of at the next bench.sh.
func TestBenchIngestFields(t *testing.T) {
	c, err := newBenchCorpus(2000)
	if err != nil {
		t.Fatal(err)
	}
	f := flag.Lookup("test.benchtime") // testing.Benchmark reads it
	defer f.Value.Set(f.Value.String())
	if err := f.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i, body := range ingestBenches {
		r := testing.Benchmark(func(b *testing.B) { body(b, c) })
		if r.N == 0 {
			t.Fatalf("benchmark body %d failed", i)
		}
		for k := range r.Extra {
			got[k] = true
		}
	}
	data, err := os.ReadFile("../../BENCH_ingest.json")
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
		t.Errorf("reported metrics %v, BENCH_ingest.json fields %v", got, want)
	}
}
