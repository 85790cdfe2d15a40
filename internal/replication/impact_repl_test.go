package replication

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"attrank/internal/impact"
	"attrank/internal/ingest"
)

// startImpactLeader is startPushLeader with the indicator layer enabled,
// so full epochs publish impact classes and push epochs carry them
// forward.
func startImpactLeader(t testing.TB) (*ingest.Ingester, *httptest.Server) {
	t.Helper()
	ing, err := ingest.Open(pushNet(t), ingest.Config{
		Dir:         t.TempDir(),
		Params:      testParams(),
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

// assertImpactIdentical requires the follower's impact state at the
// leader's current epoch to be bit-identical per external id: every
// indicator's score bits, thresholds and class, plus the epoch-level
// window/alpha/iteration diagnostics. It compares once both roles have
// attached the indicators of the leader's last full epoch.
func assertImpactIdentical(t *testing.T, ing *ingest.Ingester, f *Follower) {
	t.Helper()
	waitAttached(t, ing, f)
	assertIdentical(t, ing, f)
	lead, loc := ing.Ranking(), f.Ranking()
	li, fi := lead.Impact, loc.Impact
	if li == nil || fi == nil {
		t.Fatalf("impact state missing: leader=%v follower=%v", li != nil, fi != nil)
	}
	if fi.Window != li.Window || fi.PRAlpha != li.PRAlpha ||
		fi.PRIterations != li.PRIterations || fi.PRConverged != li.PRConverged {
		t.Fatalf("epoch %d: impact header differs: follower {w=%d α=%v it=%d conv=%v}, leader {w=%d α=%v it=%d conv=%v}",
			lead.Epoch, fi.Window, fi.PRAlpha, fi.PRIterations, fi.PRConverged,
			li.Window, li.PRAlpha, li.PRIterations, li.PRConverged)
	}
	for ind := impact.Indicator(0); ind < impact.NumIndicators; ind++ {
		if li.Thresholds(ind) != fi.Thresholds(ind) {
			t.Fatalf("epoch %d: %s thresholds differ: follower %v, leader %v",
				lead.Epoch, ind, fi.Thresholds(ind), li.Thresholds(ind))
		}
		for i := int32(0); int(i) < lead.Net.N(); i++ {
			id := lead.Net.Paper(i).ID
			j, ok := loc.Net.Lookup(id)
			if !ok {
				t.Fatalf("follower is missing paper %q", id)
			}
			if ls, fs := li.Scores(ind)[i], fi.Scores(ind)[j]; ls != fs {
				t.Fatalf("paper %q: %s leader score %v, follower %v (not bit-identical)", id, ind, ls, fs)
			}
			if lc, fc := li.Class(ind, i), fi.Class(ind, j); lc != fc {
				t.Fatalf("paper %q: %s leader class %s, follower %s", id, ind, lc, fc)
			}
		}
	}
}

// waitAttached waits until the leader's last full epoch carries its own
// indicators and the follower serves the leader's newest epoch with
// them too.
func waitAttached(t *testing.T, ing *ingest.Ingester, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		full, _, err := ing.ReplState()
		if err != nil {
			t.Fatal(err)
		}
		lead, loc := ing.Ranking(), f.Ranking()
		if full.ImpactEpoch == full.Epoch && lead.ImpactEpoch == full.Epoch &&
			loc != nil && loc.Epoch == lead.Epoch && loc.ImpactEpoch == lead.ImpactEpoch {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("indicators not attached on both roles: leader full epoch %d has epoch %d's, follower at epoch %d has epoch %d's (leader at %d)",
				full.Epoch, full.ImpactEpoch, f.Info().LocalEpoch, f.Ranking().ImpactEpoch, lead.Epoch)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerReplaysImpactClasses: a multi-epoch round — bootstrap,
// full epochs, a push streak, a mid-stream kill and restart, and the
// reconciling full epoch — must reproduce identical class assignments
// on the follower with zero full resyncs. Classes on push epochs are
// the carried-forward full-boundary state on BOTH sides, so they too
// must match pointer-semantics-free, bit for bit.
func TestFollowerReplaysImpactClasses(t *testing.T) {
	ing, srv := startImpactLeader(t)
	cfg := followerConfig(t, srv.URL)
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Kill) // a failing test must not leave the stream open

	// Bootstrap: the seeded boundary derives impact from the shipped
	// scores and influence vector.
	assertImpactIdentical(t, ing, f)

	// Full epochs (paper writes force the full path).
	for round := 0; round < 2; round++ {
		var muts []ingest.Mutation
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("n-%d-%d", round, i)
			muts = append(muts,
				ingest.Mutation{Kind: ingest.KindPaper, Paper: ingest.PaperMut{ID: id, Year: 2010}},
				ingest.Mutation{Kind: ingest.KindCitation, Citation: ingest.CitationMut{Citing: id, Cited: "s5"}})
		}
		if res, err := ing.ApplyBatch(muts); err != nil || len(res.Errors) > 0 {
			t.Fatalf("ApplyBatch: %v %+v", err, res)
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		assertImpactIdentical(t, ing, f)
	}

	// A push streak: classes stay as-of the last full epoch.
	fullImpact := f.Ranking().Impact
	leaderPush(t, ing, "s150", "s3")
	assertImpactIdentical(t, ing, f)
	loc := f.Ranking()
	if !loc.Incremental {
		t.Fatalf("epoch %d should be incremental", loc.Epoch)
	}
	if loc.Impact != fullImpact {
		t.Fatal("push epoch should carry the full-boundary impact state forward")
	}

	// Mid-stream kill; more epochs land while the follower is down.
	f.Kill()
	leaderPush(t, ing, "s165", "s8")
	if err := ing.Flush(); err != nil { // reconcile: fresh impact epoch
		t.Fatal(err)
	}

	re, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	assertImpactIdentical(t, ing, re)
	if loc := re.Ranking(); loc.Incremental || loc.Impact == nil {
		t.Fatalf("reconciled epoch: Incremental=%v Impact=%v", loc.Incremental, loc.Impact != nil)
	}
	if got := re.Info().FullResyncs + f.Info().FullResyncs; got != 0 {
		t.Fatalf("impact replay needed %d full resyncs, want 0", got)
	}
}

// TestImpactConfigSurvivesRecovery: the indicator configuration rides
// the durable state trio, so a restarted follower derives classes
// without re-bootstrapping — even when the next marker arrives before
// any reconnect to the leader.
func TestImpactConfigSurvivesRecovery(t *testing.T) {
	ing, srv := startImpactLeader(t)
	cfg := followerConfig(t, srv.URL)
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Kill) // a failing test must not leave the stream open
	assertImpactIdentical(t, ing, f)
	if err := f.Close(); err != nil { // clean shutdown persists state.json
		t.Fatal(err)
	}

	re, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	// The recovered seed boundary must already carry impact state (it is
	// derived locally from the saved block's vectors, not re-shipped).
	if re.Ranking() == nil || re.Ranking().Impact == nil {
		t.Fatal("recovered follower lost its impact state")
	}
	assertImpactIdentical(t, ing, re)
	if got := re.Info().FullResyncs; got != 0 {
		t.Fatalf("recovery needed %d full resyncs", got)
	}
}

// TestImpactDisabledShipsNoConfig: a leader without indicators ships no
// impact config and the follower publishes nil impact state.
func TestImpactDisabledShipsNoConfig(t *testing.T) {
	ing, srv := startLeader(t)
	f, err := StartFollower(followerConfig(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	assertIdentical(t, ing, f)
	if f.Ranking().Impact != nil {
		t.Fatal("follower computed impact state the leader never enabled")
	}
}
