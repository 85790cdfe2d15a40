package ingest

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
)

// pushTestConfig debounces aggressively (every mutation triggers a
// re-rank) with the push path enabled, so single-citation writes become
// push epochs.
func pushTestConfig(dir string) Config {
	return Config{
		Dir:         dir,
		Params:      testParams(),
		RerankAfter: 1,
		RerankEvery: time.Millisecond,
		PushTol:     1e-8,
	}
}

func l1Diff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// pushSeedNet builds a 200-paper corpus large enough that a single
// citation's influence region stays under the touched-fraction budget
// (the 3-paper seedNet trips it and correctly falls back to full).
func pushSeedNet(t *testing.T) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < 200; i++ {
		if _, err := b.AddPaper(fmt.Sprintf("s%d", i), 1990+i/10, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(1); i < 200; i++ {
		b.AddEdgeByIndex(i, i-1)
		if i >= 2 && i/2 != i-1 {
			b.AddEdgeByIndex(i, i/2)
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestPushEpochPublishesIncrementalRanking: a citation-only write under
// PushTol becomes an incremental epoch whose scores sit within the
// published staleness of the exact rank, and the next Flush reconciles
// to scores bit-identical to a chain that never pushed.
func TestPushEpochPublishesIncrementalRanking(t *testing.T) {
	ing := mustOpen(t, pushSeedNet(t), pushTestConfig(t.TempDir()))
	if _, err := ing.AddCitation(CitationMut{Citing: "s150", Cited: "s3"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "push epoch", func() bool { return ing.Status().PushEpochs == 1 })

	r := ing.Ranking()
	if !r.Incremental {
		t.Fatal("push epoch not marked Incremental")
	}
	if r.Staleness <= 0 || r.Staleness > core.DefaultPushMaxResidual {
		t.Fatalf("push epoch staleness = %v, want within (0, %v]", r.Staleness, core.DefaultPushMaxResidual)
	}
	if r.Epoch != 2 {
		t.Fatalf("push epoch = %d, want 2", r.Epoch)
	}

	// The interim scores are within the advertised bound of the exact
	// rank of the same graph.
	b := graph.NewBuilderFrom(r.Net)
	b.AddEdge("s150", "s3")
	exactNet, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.Rank(exactNet, r.RankedAt, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if dev := l1Diff(r.Result.Scores, exact.Scores); dev > r.Staleness+1e-9 {
		t.Fatalf("push scores deviate %.3g from exact, staleness bound %.3g", dev, r.Staleness)
	}

	// Reconcile. The full epoch must be exact again…
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	rec := ing.Ranking()
	if rec.Incremental || rec.Staleness != 0 {
		t.Fatalf("reconciled epoch: Incremental=%v Staleness=%v", rec.Incremental, rec.Staleness)
	}
	if st := ing.Status(); st.PushBacklog != 0 || st.Pending != 0 {
		t.Fatalf("after reconcile: backlog=%d pending=%d", st.PushBacklog, st.Pending)
	}

	// …and bit-identical to a full-only ingester whose chain ranked at
	// the same boundary: push epochs must not perturb the warm-start
	// chain.
	shadow := mustOpen(t, pushSeedNet(t), testConfig(t.TempDir()))
	if _, err := shadow.AddCitation(CitationMut{Citing: "s150", Cited: "s3"}); err != nil {
		t.Fatal(err)
	}
	if err := shadow.Flush(); err != nil {
		t.Fatal(err)
	}
	sr := shadow.Ranking()
	if len(sr.Result.Scores) != len(rec.Result.Scores) {
		t.Fatalf("corpus mismatch: %d vs %d papers", len(sr.Result.Scores), len(rec.Result.Scores))
	}
	for i := range sr.Result.Scores {
		if sr.Result.Scores[i] != rec.Result.Scores[i] {
			t.Fatalf("node %d: reconciled score %v differs from full-only chain %v", i, rec.Result.Scores[i], sr.Result.Scores[i])
		}
	}
}

// TestPushMarkerFailureFallsBackToFull: when a push epoch's marker and
// then its full fallback's marker both fail to append, no epoch is
// published, the unpublished citation leaves the pusher, and so does
// the published backlog. The next re-rank must take the full path,
// never push the new citation alone, and land on a full-only chain's
// bits.
func TestPushMarkerFailureFallsBackToFull(t *testing.T) {
	cfg := testConfig(t.TempDir()) // re-ranks only when the test calls rerank
	cfg.PushTol = 1e-8
	ing := mustOpen(t, pushSeedNet(t), cfg)
	if _, err := ing.AddCitation(CitationMut{Citing: "s150", Cited: "s3"}); err != nil {
		t.Fatal(err)
	}
	if err := ing.rerank(false); err != nil || !ing.Ranking().Incremental {
		t.Fatalf("first citation: err %v, incremental %v", err, ing.Ranking().Incremental)
	}
	if _, err := ing.AddCitation(CitationMut{Citing: "s150", Cited: "s4"}); err != nil {
		t.Fatal(err)
	}
	ing.mu.Lock()
	ff := &flakyFile{walFile: ing.wal.f, failWrites: 2}
	ing.wal.f = ff
	ing.mu.Unlock()
	if err := ing.rerank(false); !errors.Is(err, errInjected) || ff.failWrites != 0 {
		t.Fatalf("re-rank with failing markers: %v", err)
	}
	if r := ing.Ranking(); r.Epoch != 2 || ing.ReplCursor().Epoch != 2 {
		t.Fatalf("failed markers published epoch %d (cursor at %d)", r.Epoch, ing.ReplCursor().Epoch)
	}
	if n := ing.chain.Backlog(); n != 0 {
		t.Fatalf("the failed push marker left a streak of %d citations", n)
	}
	if err := ing.rerank(false); err != nil {
		t.Fatal(err)
	}
	r := ing.Ranking()
	if r.Epoch != 3 || r.Incremental {
		t.Fatalf("after the failures: epoch %d, incremental %v; want full epoch 3", r.Epoch, r.Incremental)
	}
	shadow := mustOpen(t, pushSeedNet(t), testConfig(t.TempDir()))
	if _, err := shadow.ApplyBatch([]Mutation{citation("s150", "s3"), citation("s150", "s4")}); err != nil {
		t.Fatal(err)
	}
	if err := shadow.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, v := range shadow.Ranking().Result.Scores {
		if r.Result.Scores[i] != v {
			t.Fatalf("paper %d: %v after the failures, full-only chain %v", i, r.Result.Scores[i], v)
		}
	}
}

// TestPaperWriteFallsBackToFull: a batch with a new paper cannot push
// (the published Net lacks the paper) and must take the full path.
func TestPaperWriteFallsBackToFull(t *testing.T) {
	ing := mustOpen(t, seedNet(t), pushTestConfig(t.TempDir()))
	if _, err := ing.AddPaper(PaperMut{ID: "fresh", Year: 2009}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "full epoch", func() bool { return ing.Status().Epoch >= 2 })
	r := ing.Ranking()
	if r.Incremental {
		t.Fatal("paper write published as incremental epoch")
	}
	if st := ing.Status(); st.PushEpochs != 0 {
		t.Fatalf("PushEpochs = %d, want 0", st.PushEpochs)
	}
	if _, ok := r.Net.Lookup("fresh"); !ok {
		t.Fatal("paper missing from full epoch")
	}
}

// TestPusherReseededAfterCompaction is the warm-start-chain regression
// test: push → compaction (full epoch re-anchors the corpus) → push
// again. The second push streak must be seeded from the new full
// boundary; a pusher left on the old base would either blow up or
// publish scores far outside its claimed staleness.
func TestPusherReseededAfterCompaction(t *testing.T) {
	ing := mustOpen(t, pushSeedNet(t), pushTestConfig(t.TempDir()))

	if _, err := ing.AddCitation(CitationMut{Citing: "s150", Cited: "s3"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first push epoch", func() bool { return ing.Status().PushEpochs == 1 })

	// A paper batch forces a full epoch, which compacts the pushed
	// citation and invalidates the pusher's base.
	if _, err := ing.AddPaper(PaperMut{ID: "fresh", Year: 2009}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "compacting full epoch", func() bool {
		r := ing.Ranking()
		_, ok := r.Net.Lookup("fresh")
		return ok && !r.Incremental
	})

	// s151 (year 2005) sits outside the attention window, so the push
	// residual stays local; "fresh" as the cited side still exercises the
	// post-compaction corpus.
	if _, err := ing.AddCitation(CitationMut{Citing: "s151", Cited: "fresh"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second push epoch", func() bool { return ing.Status().PushEpochs == 2 })

	r := ing.Ranking()
	if !r.Incremental {
		t.Fatal("second streak epoch not incremental")
	}
	// Exactness against the current graph proves the pusher was re-seeded
	// from the post-compaction boundary, not the stale one.
	b := graph.NewBuilderFrom(r.Net)
	b.AddEdge("s151", "fresh")
	exactNet, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.Rank(exactNet, r.RankedAt, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if dev := l1Diff(r.Result.Scores, exact.Scores); dev > r.Staleness+1e-9 {
		t.Fatalf("post-compaction push deviates %.3g, staleness bound %.3g", dev, r.Staleness)
	}
}

// TestEpochMarkerLegacyDecode: epoch markers written before the Flags
// byte existed (16-byte payload) must decode as full epochs, and the
// 17-byte form must round-trip its flags.
func TestEpochMarkerLegacyDecode(t *testing.T) {
	m := Mutation{Kind: KindEpoch, Epoch: EpochMark{Epoch: 42, RankedAt: 1996, Count: 7, Flags: MarkPush}}
	payload, err := m.encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMutation(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch {
		t.Fatalf("round-trip = %+v, want %+v", got.Epoch, m.Epoch)
	}

	legacy := payload[:len(payload)-1] // the pre-Flags wire form
	got, err = DecodeMutation(legacy)
	if err != nil {
		t.Fatalf("legacy 16-byte marker rejected: %v", err)
	}
	want := EpochMark{Epoch: 42, RankedAt: 1996, Count: 7, Flags: 0}
	if got.Epoch != want {
		t.Fatalf("legacy decode = %+v, want %+v", got.Epoch, want)
	}

	if _, err := DecodeMutation(payload[:len(payload)-2]); err == nil {
		t.Error("truncated marker accepted")
	}
}
