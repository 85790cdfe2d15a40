package replication

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/ingest"
	"attrank/internal/synth"
)

// startTiledLeader is startImpactLeader on the 20k-paper synth DBLP
// corpus (ten 2048-row tiles), ranked by the tiled kernel at Workers 3.
func startTiledLeader(t *testing.T) (*ingest.Ingester, *httptest.Server) {
	t.Helper()
	net, err := synth.Generate(synth.DBLP())
	if err != nil {
		t.Fatal(err)
	}
	params := testParams()
	params.Workers = 3
	ing, err := ingest.Open(net, ingest.Config{
		Dir:         t.TempDir(),
		Params:      params,
		RerankAfter: 1,
		RerankEvery: time.Millisecond,
		PushTol:     1e-8,
		Impact:      impact.Config{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	l := NewLeader(ing, LeaderConfig{Poll: time.Millisecond, Heartbeat: 20 * time.Millisecond})
	srv := httptest.NewServer(l.Handler())
	t.Cleanup(srv.Close)
	return ing, srv
}

// newCitations returns k citations absent from net, each from one of
// its newest papers to one of its oldest.
func newCitations(net *graph.Network, k int) [][2]string {
	byTime := net.PapersByTime()
	var out [][2]string
	for i := 0; len(out) < k; i++ {
		citing, cited := byTime[len(byTime)-1-i], byTime[i]
		if !net.HasEdge(citing, cited) {
			out = append(out, [2]string{net.Paper(citing).ID, net.Paper(cited).ID})
		}
	}
	return out
}

// TestFollowerTiledLeaderBitIdentical: a follower of a tiled leader
// ranking at Workers 3 must publish the leader's Ranking and impact
// state bit for bit — residuals included — through full, push and
// reconciling epochs on the 20k corpus, whose vectors span many epoch
// frames.
func TestFollowerTiledLeaderBitIdentical(t *testing.T) {
	ing, srv := startTiledLeader(t)
	f, err := StartFollower(followerConfig(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	assertImpactIdentical(t, ing, f)

	// Each round's papers advance the ranking clock a year, so the
	// debounced full epoch that publishes them iterates many times.
	base := ing.Ranking().Net
	for round := 0; round < 2; round++ {
		var muts []ingest.Mutation
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("t-%d-%d", round, i)
			muts = append(muts,
				ingest.Mutation{Kind: ingest.KindPaper, Paper: ingest.PaperMut{ID: id, Year: base.MaxYear() + 1 + round}},
				ingest.Mutation{Kind: ingest.KindCitation, Citation: ingest.CitationMut{Citing: id, Cited: base.Paper(int32(i * 1000)).ID}})
		}
		before := ing.Ranking().Epoch
		if res, err := ing.ApplyBatch(muts); err != nil || len(res.Errors) > 0 {
			t.Fatalf("ApplyBatch: %v %+v", err, res)
		}
		deadline := time.Now().Add(10 * time.Second)
		for ing.Ranking().Epoch == before {
			if time.Now().After(deadline) {
				t.Fatal("batch did not publish an epoch")
			}
			time.Sleep(time.Millisecond)
		}
		assertImpactIdentical(t, ing, f)
		if lead := ing.Ranking(); lead.Incremental || lead.Result.Iterations < 5 {
			t.Fatalf("epoch %d: want a full epoch of several iterations, got Incremental=%v after %d",
				lead.Epoch, lead.Incremental, lead.Result.Iterations)
		}
	}

	for _, c := range newCitations(base, 3) {
		leaderPush(t, ing, c[0], c[1])
		assertImpactIdentical(t, ing, f)
		if !f.Ranking().Incremental {
			t.Fatalf("epoch %d should be incremental", f.Ranking().Epoch)
		}
	}

	if err := ing.Flush(); err != nil { // reconcile: a fresh full epoch
		t.Fatal(err)
	}
	assertImpactIdentical(t, ing, f)
	if loc := f.Ranking(); loc.Incremental {
		t.Fatalf("reconciled epoch %d still incremental", loc.Epoch)
	}
	if got := f.Info().FullResyncs; got != 0 {
		t.Fatalf("follower needed %d full resyncs", got)
	}
}
