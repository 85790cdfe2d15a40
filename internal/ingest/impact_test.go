package ingest

import (
	"testing"

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
