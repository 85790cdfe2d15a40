package ingest

import (
	"testing"
	"time"

	"attrank/internal/impact"
)

// TestImpactEpochPublished: with indicators enabled every full epoch
// carries an impact.Epoch whose popularity vector IS the published
// AttRank scores and whose recompute from the published inputs is
// bit-identical — the invariant the service's TestImpactBatch
// cross-checks end-to-end.
func TestImpactEpochPublished(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Impact = impact.Config{Enabled: true}
	ing := mustOpen(t, pushSeedNet(t), cfg)

	r := ing.Ranking()
	if r.Impact == nil {
		t.Fatal("full epoch published without impact state")
	}
	pop := r.Impact.Scores(impact.Popularity)
	for i := range r.Result.Scores {
		if pop[i] != r.Result.Scores[i] {
			t.Fatalf("popularity %d diverges from published AttRank score", i)
		}
	}
	want, err := impact.Compute(r.Net, r.Result.Scores, r.RankedAt, ing.ImpactConfig())
	if err != nil {
		t.Fatal(err)
	}
	for ind := impact.Indicator(0); ind < impact.NumIndicators; ind++ {
		if r.Impact.Thresholds(ind) != want.Thresholds(ind) {
			t.Fatalf("%s thresholds differ from recompute", ind)
		}
		for i := range r.Result.Scores {
			if r.Impact.Class(ind, int32(i)) != want.Class(ind, int32(i)) {
				t.Fatalf("%s class %d differs from recompute", ind, i)
			}
		}
	}

	// A write producing a new full epoch refreshes the impact state.
	if _, err := ing.AddCitation(CitationMut{Citing: "s150", Cited: "s3"}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	r2 := ing.Ranking()
	if r2.Impact == nil || r2.Impact == r.Impact {
		t.Fatal("full re-rank did not publish a fresh impact epoch")
	}
}

// TestImpactCarriedAcrossPushEpochs: an incremental epoch reuses the
// last full epoch's impact state pointer — classes are as-of the full
// boundary, staleness advertised by the Ranking itself.
func TestImpactCarriedAcrossPushEpochs(t *testing.T) {
	cfg := pushTestConfig(t.TempDir())
	cfg.Impact = impact.Config{Enabled: true}
	ing := mustOpen(t, pushSeedNet(t), cfg)

	full := ing.Ranking()
	if full.Impact == nil {
		t.Fatal("seed epoch has no impact state")
	}
	if _, err := ing.AddCitation(CitationMut{Citing: "s150", Cited: "s3"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "push epoch", func() bool { return ing.Status().PushEpochs == 1 })
	r := ing.Ranking()
	if !r.Incremental {
		t.Fatal("expected a push epoch")
	}
	if r.Impact != full.Impact {
		t.Fatal("push epoch did not carry the last full epoch's impact state forward")
	}
}

// TestImpactDisabledByDefault: the zero Config publishes nil impact
// state, and Open rejects an invalid indicator configuration.
func TestImpactDisabledByDefault(t *testing.T) {
	ing := mustOpen(t, seedNet(t), testConfig(t.TempDir()))
	if ing.Ranking().Impact != nil {
		t.Fatal("impact state published while disabled")
	}

	bad := testConfig(t.TempDir())
	bad.Impact = impact.Config{Enabled: true, PRAlpha: 2}
	if _, err := Open(seedNet(t), bad); err == nil {
		t.Fatal("invalid impact config accepted")
	}
}

// gateIndicators holds every background indicator computation (the
// one-core job the loop starts) of the ingesters this test opens: the
// job reports its epoch on started, then waits for a value on release.
// Open's and Flush's computations, which run on every core, pass.
func gateIndicators(t *testing.T) (started chan uint64, release chan struct{}) {
	prev := indicatorsFor
	started, release = make(chan uint64, 16), make(chan struct{})
	indicatorsFor = func(cfg impact.Config) func(*Ranking, int) (*impact.Epoch, error) {
		return func(r *Ranking, workers int) (*impact.Epoch, error) {
			if workers == 1 {
				started <- r.Epoch
				<-release
			}
			return Indicators(r, cfg, workers)
		}
	}
	t.Cleanup(func() { indicatorsFor = prev })
	return started, release
}

// TestAttachSupersededBurst: a full epoch is published at once with
// the last attached indicators carried forward, and its own are
// attached by one background job at a time. Full epochs published
// while a job runs start no second job; the job's result, superseded
// by then, is dropped and counted, and the newest epoch's job starts
// next (skipping the ones in between). Its result is attached to that
// epoch and republished, with classes equal to a recompute.
func TestAttachSupersededBurst(t *testing.T) {
	started, release := gateIndicators(t)
	cfg := testConfig(t.TempDir())
	cfg.RerankAfter = 1
	cfg.Impact = impact.Config{Enabled: true}
	ing := mustOpen(t, pushSeedNet(t), cfg)
	t.Cleanup(func() { close(release) }) // runs before Close, which waits for the job
	if r := ing.Ranking(); r.ImpactEpoch != r.Epoch || r.Impact == nil {
		t.Fatalf("Open published epoch %d with epoch %d's indicators", r.Epoch, r.ImpactEpoch)
	}
	superseded := ImpactAttachSuperseded.With("leader").Value()
	attaches := ImpactAttachSeconds.With("leader").Count()

	write := func(id string) uint64 {
		t.Helper()
		want := ing.Ranking().Epoch + 1
		if _, err := ing.AddPaper(PaperMut{ID: id, Year: 2010}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "epoch "+id, func() bool { return ing.Ranking().Epoch == want })
		return want
	}
	first := write("burst-0")
	if e := <-started; e != first {
		t.Fatalf("job started for epoch %d, want %d", e, first)
	}
	var last uint64
	for _, id := range []string{"burst-1", "burst-2", "burst-3"} {
		last = write(id)
		r := ing.Ranking()
		if r.ImpactEpoch != 1 || r.Impact.Papers() != r.Net.N()-int(r.Epoch-1) {
			t.Fatalf("epoch %d published with epoch %d's indicators over %d papers", r.Epoch, r.ImpactEpoch, r.Impact.Papers())
		}
		if st := ing.Status(); st.ImpactEpoch != 1 {
			t.Fatalf("Status reports indicators of epoch %d, want 1", st.ImpactEpoch)
		}
	}
	select {
	case e := <-started:
		t.Fatalf("a second job started (epoch %d) while one was in flight", e)
	case <-time.After(20 * time.Millisecond):
	}

	release <- struct{}{} // the first job finishes, superseded
	if e := <-started; e != last {
		t.Fatalf("next job computes epoch %d, want the newest, %d", e, last)
	}
	if got := ImpactAttachSuperseded.With("leader").Value() - superseded; got != 1 {
		t.Fatalf("attrank_impact_attach_superseded_total rose by %d, want 1", got)
	}
	if r := ing.Ranking(); r.ImpactEpoch != 1 {
		t.Fatalf("a superseded result was attached: epoch %d has epoch %d's indicators", r.Epoch, r.ImpactEpoch)
	}
	release <- struct{}{}
	waitFor(t, "the attach", func() bool { return ing.Ranking().ImpactEpoch == last })
	r := ing.Ranking()
	if r.Epoch != last || ing.Status().ImpactEpoch != last {
		t.Fatalf("attach republished epoch %d (status %d), want %d", r.Epoch, ing.Status().ImpactEpoch, last)
	}
	if got := ImpactAttachSeconds.With("leader").Count() - attaches; got != 1 {
		t.Fatalf("attrank_impact_attach_seconds observed %d attaches, want 1", got)
	}
	want, err := impact.Compute(r.Net, r.Result.Scores, r.RankedAt, ing.ImpactConfig())
	if err != nil {
		t.Fatal(err)
	}
	for ind := impact.Indicator(0); ind < impact.NumIndicators; ind++ {
		if r.Impact.Thresholds(ind) != want.Thresholds(ind) {
			t.Fatalf("%s thresholds differ from an all-core recompute", ind)
		}
		for i := range want.Scores(ind) {
			if r.Impact.Scores(ind)[i] != want.Scores(ind)[i] {
				t.Fatalf("%s score %d differs from an all-core recompute", ind, i)
			}
		}
	}
	if full, _, _ := ing.ReplState(); full.ImpactEpoch != last {
		t.Fatalf("the bootstrap anchor carries epoch %d's indicators, want %d", full.ImpactEpoch, last)
	}
}
