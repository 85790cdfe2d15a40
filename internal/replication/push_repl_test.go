package replication

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"attrank/internal/graph"
	"attrank/internal/ingest"
)

// pushNet builds a corpus whose push regions are small: 400 papers in
// disjoint 20-paper citation chains, so a streak of single-citation
// pushes stays under the cumulative touched-fraction budget (a tiny or
// densely connected corpus correctly falls back to full epochs, which
// would make these tests vacuous).
func pushNet(t *testing.T) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < 400; i++ {
		if _, err := b.AddPaper(fmt.Sprintf("s%d", i), 1990+i/20, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(1); i < 400; i++ {
		if i%20 != 0 {
			b.AddEdgeByIndex(i, i-1)
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// startPushLeader is startLeader with the incremental push path live:
// every citation write debounces immediately into its own epoch, which
// the eligibility rules then publish as a push epoch.
func startPushLeader(t *testing.T) (*ingest.Ingester, *httptest.Server) {
	t.Helper()
	ing, err := ingest.Open(pushNet(t), ingest.Config{
		Dir:         t.TempDir(),
		Params:      testParams(),
		RerankAfter: 1,
		RerankEvery: time.Millisecond,
		PushTol:     1e-8,
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

func leaderPush(t *testing.T, ing *ingest.Ingester, citing, cited string) {
	t.Helper()
	before := ing.Status().PushEpochs
	if _, err := ing.AddCitation(ingest.CitationMut{Citing: citing, Cited: cited}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ing.Status().PushEpochs <= before {
		if time.Now().After(deadline) {
			t.Fatalf("citation %s→%s did not publish a push epoch (status %+v)", citing, cited, ing.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerReplaysPushEpochs: incremental epochs ship as their raw
// citations plus a push-flagged marker; the follower replays them with
// its own pusher and must land bit-identical — scores, positions,
// staleness and the Incremental flag itself.
func TestFollowerReplaysPushEpochs(t *testing.T) {
	ing, srv := startPushLeader(t)
	f, err := StartFollower(followerConfig(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	// A streak of push epochs, compared bit-for-bit at each step.
	for _, e := range [][2]string{{"s150", "s3"}, {"s165", "s8"}, {"s155", "s12"}} {
		leaderPush(t, ing, e[0], e[1])
		assertIdentical(t, ing, f)
		lead, loc := ing.Ranking(), f.Ranking()
		if !lead.Incremental {
			t.Fatalf("leader epoch %d not incremental", lead.Epoch)
		}
		if !loc.Incremental {
			t.Fatalf("follower epoch %d lost the Incremental flag", loc.Epoch)
		}
		if loc.Staleness != lead.Staleness {
			t.Fatalf("epoch %d: follower staleness %v, leader %v (must be bit-identical)", loc.Epoch, loc.Staleness, lead.Staleness)
		}
	}

	// The reconciling full epoch compacts the backlog on both sides.
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, ing, f)
	if loc := f.Ranking(); loc.Incremental || loc.Staleness != 0 {
		t.Fatalf("reconciled follower epoch: Incremental=%v Staleness=%v", loc.Incremental, loc.Staleness)
	}
	if got := f.Info().FullResyncs; got != 0 {
		t.Fatalf("follower needed %d full resyncs during push replay", got)
	}
}

// TestFollowerRecoversPushChain: a follower killed mid-push-streak must
// rebuild the streak from its local WAL on restart — push epochs are
// anchored at the last full boundary, so recovery re-replays them and
// lands on the same bits without a resync.
func TestFollowerRecoversPushChain(t *testing.T) {
	ing, srv := startPushLeader(t)
	cfg := followerConfig(t, srv.URL)
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Kill) // a failing test must not leave the stream open

	leaderPush(t, ing, "s150", "s3")
	leaderPush(t, ing, "s165", "s8")
	assertIdentical(t, ing, f)
	f.Kill()

	// One more push epoch lands while the follower is down.
	leaderPush(t, ing, "s155", "s12")

	re, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	assertIdentical(t, ing, re)
	loc := re.Ranking()
	if !loc.Incremental || loc.Staleness <= 0 {
		t.Fatalf("recovered follower epoch: Incremental=%v Staleness=%v", loc.Incremental, loc.Staleness)
	}
	if loc.Staleness != ing.Ranking().Staleness {
		t.Fatalf("recovered staleness %v, leader %v", loc.Staleness, ing.Ranking().Staleness)
	}
	if got := re.Info().FullResyncs; got != 0 {
		t.Fatalf("restart needed %d full resyncs", got)
	}
}
