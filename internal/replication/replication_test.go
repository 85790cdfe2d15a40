package replication

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/ingest"
)

func testParams() core.Params {
	return core.Params{Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.3}
}

func seedNet(t testing.TB) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	add := func(id string, year int, authors []string, venue string) {
		t.Helper()
		if _, err := b.AddPaper(id, year, authors, venue); err != nil {
			t.Fatal(err)
		}
	}
	add("old", 1990, []string{"alice"}, "V")
	add("mid", 1994, []string{"bob"}, "V")
	add("hot", 1996, []string{"carol"}, "W")
	for _, e := range [][2]string{{"mid", "old"}, {"hot", "old"}, {"hot", "mid"}} {
		b.AddEdge(e[0], e[1])
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// startLeader opens a live ingester over a fresh directory and serves
// its replication endpoints. Debounce is pushed far out so tests drive
// epochs explicitly with Flush.
func startLeader(t testing.TB) (*ingest.Ingester, *httptest.Server) {
	t.Helper()
	return startLeaderParams(t, testParams())
}

// startLeaderParams is startLeader ranking with the given parameters.
func startLeaderParams(t testing.TB, params core.Params) (*ingest.Ingester, *httptest.Server) {
	t.Helper()
	ing, err := ingest.Open(seedNet(t), ingest.Config{
		Dir:         t.TempDir(),
		Params:      params,
		RerankAfter: 1 << 20,
		RerankEvery: time.Hour,
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

func followerConfig(t *testing.T, leaderURL string) FollowerConfig {
	t.Helper()
	return FollowerConfig{
		Leader:   leaderURL,
		Dir:      t.TempDir(),
		RetryMin: 2 * time.Millisecond,
		RetryMax: 20 * time.Millisecond,
	}
}

// leaderWrite applies a small batch of new papers citing the seed corpus
// and flushes, producing exactly one new epoch.
func leaderWrite(t *testing.T, ing *ingest.Ingester, tag string, n int) {
	t.Helper()
	var muts []ingest.Mutation
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p-%s-%d", tag, i)
		muts = append(muts,
			ingest.Mutation{Kind: ingest.KindPaper, Paper: ingest.PaperMut{ID: id, Year: 1997 + i%3, Authors: []string{"dave"}, Venue: "V"}},
			ingest.Mutation{Kind: ingest.KindCitation, Citation: ingest.CitationMut{Citing: id, Cited: "hot"}})
	}
	if res, err := ing.ApplyBatch(muts); err != nil || len(res.Errors) > 0 {
		t.Fatalf("ApplyBatch: %v %+v", err, res)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
}

// assertIdentical requires the follower's view at the leader's current
// epoch to be the leader's Ranking, field for field: same papers, same
// scores (==, not ≈), same positions and order (mapped through paper
// IDs), same effective ranking time, corpus statistics, push flag,
// staleness bound and impact presence, and — on every epoch the
// follower replayed rather than seeded — the same convergence
// diagnostics.
func assertIdentical(t *testing.T, ing *ingest.Ingester, f *Follower) {
	t.Helper()
	lead := ing.Ranking()
	if err := f.WaitEpoch(lead.Epoch, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	loc := f.Ranking()
	if loc.Epoch != lead.Epoch {
		t.Fatalf("follower at epoch %d, leader at %d", loc.Epoch, lead.Epoch)
	}
	if loc.Net.N() != lead.Net.N() {
		t.Fatalf("follower corpus %d papers, leader %d", loc.Net.N(), lead.Net.N())
	}
	if loc.RankedAt != lead.RankedAt {
		t.Fatalf("follower ranked at %d, leader at %d", loc.RankedAt, lead.RankedAt)
	}
	for i := int32(0); int(i) < lead.Net.N(); i++ {
		id := lead.Net.Paper(i).ID
		j, ok := loc.Net.Lookup(id)
		if !ok {
			t.Fatalf("follower is missing paper %q", id)
		}
		if ls, fs := lead.Result.Scores[i], loc.Result.Scores[j]; ls != fs {
			t.Fatalf("paper %q: leader score %v, follower score %v (epoch %d)", id, ls, fs, lead.Epoch)
		}
		if lp, fp := lead.Positions[i], loc.Positions[j]; lp != fp {
			t.Fatalf("paper %q: leader rank %d, follower rank %d", id, lp, fp)
		}
	}
	if len(loc.Order) != len(lead.Order) {
		t.Fatalf("epoch %d: follower order has %d entries, leader %d", lead.Epoch, len(loc.Order), len(lead.Order))
	}
	for k := range lead.Order {
		if lid, fid := lead.Net.Paper(int32(lead.Order[k])).ID, loc.Net.Paper(int32(loc.Order[k])).ID; lid != fid {
			t.Fatalf("epoch %d position %d: leader paper %q, follower paper %q", lead.Epoch, k, lid, fid)
		}
	}
	if loc.Stats != lead.Stats {
		t.Fatalf("epoch %d: follower stats %+v, leader %+v", lead.Epoch, loc.Stats, lead.Stats)
	}
	if loc.Incremental != lead.Incremental || loc.Staleness != lead.Staleness {
		t.Fatalf("epoch %d: follower Incremental=%v Staleness=%v, leader Incremental=%v Staleness=%v",
			lead.Epoch, loc.Incremental, loc.Staleness, lead.Incremental, lead.Staleness)
	}
	if (loc.Impact == nil) != (lead.Impact == nil) {
		t.Fatalf("epoch %d: follower has impact state %v, leader %v", lead.Epoch, loc.Impact != nil, lead.Impact != nil)
	}
	lr, fr := lead.Result, loc.Result
	if !loc.Incremental && fr.Iterations == 0 {
		// A bootstrap- or recovery-seeded epoch: /repl/state and the
		// saved state ship vectors but no iteration count or residual
		// trace, so the follower reports 0 iterations and no residuals
		// there. Every replayed full epoch iterates at least once.
		if !fr.Converged || fr.Residuals != nil {
			t.Fatalf("epoch %d: seeded follower result Converged=%v Residuals=%v", lead.Epoch, fr.Converged, fr.Residuals)
		}
		return
	}
	if fr.Iterations != lr.Iterations || fr.Converged != lr.Converged {
		t.Fatalf("epoch %d: follower %d iterations (converged %v), leader %d (converged %v)",
			lead.Epoch, fr.Iterations, fr.Converged, lr.Iterations, lr.Converged)
	}
	if len(fr.Residuals) != len(lr.Residuals) {
		t.Fatalf("epoch %d: follower %d residuals, leader %d", lead.Epoch, len(fr.Residuals), len(lr.Residuals))
	}
	for k := range lr.Residuals {
		if fr.Residuals[k] != lr.Residuals[k] {
			t.Fatalf("epoch %d residual %d: follower %v, leader %v", lead.Epoch, k, fr.Residuals[k], lr.Residuals[k])
		}
	}
}

func TestFollowerTracksLeaderBitIdentical(t *testing.T) {
	ing, srv := startLeader(t)
	f, err := StartFollower(followerConfig(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	assertIdentical(t, ing, f) // bootstrap view

	for round := 0; round < 4; round++ {
		leaderWrite(t, ing, fmt.Sprintf("r%d", round), 3)
		assertIdentical(t, ing, f)
	}
	if got := f.Info().FullResyncs; got != 0 {
		t.Errorf("FullResyncs = %d, want 0", got)
	}
}

func TestFollowerCrashRecoveryResumesWithoutResync(t *testing.T) {
	ing, srv := startLeader(t)
	cfg := followerConfig(t, srv.URL)
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Kill) // a failing test must not leave the stream open
	leaderWrite(t, ing, "before", 3)
	assertIdentical(t, ing, f)
	f.Kill() // crash: no state save

	// The leader moves on while the follower is down.
	leaderWrite(t, ing, "during", 4)

	f2, err := StartFollower(cfg) // same directory
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	assertIdentical(t, ing, f2)
	if got := f2.Info().FullResyncs; got != 0 {
		t.Errorf("FullResyncs after crash restart = %d, want 0 (local WAL replay + stream resume)", got)
	}
}

func TestFollowerGracefulRestartResumesWithoutResync(t *testing.T) {
	ing, srv := startLeader(t)
	cfg := followerConfig(t, srv.URL)
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Kill) // a failing test must not leave the stream open
	leaderWrite(t, ing, "a", 2)
	assertIdentical(t, ing, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	leaderWrite(t, ing, "b", 2)
	f2, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	assertIdentical(t, ing, f2)
	if got := f2.Info().FullResyncs; got != 0 {
		t.Errorf("FullResyncs = %d, want 0", got)
	}
}

func TestFollowerFullResyncOnWALRotation(t *testing.T) {
	ing, srv := startLeader(t)
	f, err := StartFollower(followerConfig(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	leaderWrite(t, ing, "pre", 2)
	assertIdentical(t, ing, f)

	// Snapshot compaction rotates the WAL generation: the follower's
	// cursor is now invalid and it must re-bootstrap.
	if err := ing.Snapshot(); err != nil {
		t.Fatal(err)
	}
	leaderWrite(t, ing, "post", 3)
	assertIdentical(t, ing, f)
	if got := f.Info().FullResyncs; got == 0 {
		t.Errorf("FullResyncs = 0, want >= 1 after WAL rotation")
	}
}

// TestFollowerRejectsUnexpectedParams: Expect pins every parameter that
// shapes the Result. Of the worker count only the kernel choice counts:
// serial (0) against tiled (nonzero) is a mismatch, one tiled count
// against another is not.
func TestFollowerRejectsUnexpectedParams(t *testing.T) {
	withWorkers := func(p core.Params, workers int) core.Params {
		p.Workers = workers
		return p
	}
	swapped := testParams()
	swapped.Alpha, swapped.Beta = swapped.Beta, swapped.Alpha
	for _, tc := range []struct {
		name           string
		leader, expect core.Params
		reject         bool
	}{
		{"coefficients", testParams(), swapped, true},
		{"kernel", testParams(), withWorkers(testParams(), -1), true},
		{"count", withWorkers(testParams(), 3), withWorkers(testParams(), 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ing, srv := startLeaderParams(t, tc.leader)
			cfg := followerConfig(t, srv.URL)
			cfg.Expect = &tc.expect
			f, err := StartFollower(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Kill()
			if !tc.reject {
				assertIdentical(t, ing, f)
				if le := f.Info().LastError; le != "" {
					t.Fatalf("follower reported %q for params that differ only in worker count", le)
				}
				return
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				if le := f.Info().LastError; strings.Contains(le, "differ") {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no params-mismatch error; info = %+v", f.Info())
				}
				time.Sleep(2 * time.Millisecond)
			}
			if f.Ranking() != nil {
				t.Error("follower published a ranking despite the params mismatch")
			}
		})
	}
}

// flakyTransport cuts the body of the first /repl/wal response after
// budget bytes, simulating a connection dying mid-frame at an arbitrary
// byte position. Later streams (and all bootstraps) flow untouched.
type flakyTransport struct {
	base   http.RoundTripper
	budget int64
	used   atomic.Bool
}

func (ft *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := ft.base.RoundTrip(req)
	if err != nil || !strings.HasPrefix(req.URL.Path, "/repl/wal") {
		return resp, err
	}
	if !ft.used.CompareAndSwap(false, true) {
		return resp, err
	}
	resp.Body = &cutBody{rc: resp.Body, left: ft.budget}
	return resp, nil
}

type cutBody struct {
	rc   io.ReadCloser
	left int64
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.rc.Read(p)
	b.left -= int64(n)
	return n, err
}

func (b *cutBody) Close() error { return b.rc.Close() }

// TestFollowerSurvivesStreamCutAtEveryByte interrupts the first WAL
// stream after every possible byte budget — covering a cut inside the
// frame header, at each record boundary, and mid-record — and requires
// the follower to resume to bit-identical state without a full resync.
func TestFollowerSurvivesStreamCutAtEveryByte(t *testing.T) {
	ing, srv := startLeader(t)
	// The per-round shipped bytes: a batch of records plus a marker,
	// framed. Budgets sweep past the whole round with slack for the
	// heartbeat and frame headers.
	step := 1
	if testing.Short() {
		step = 13
	}
	const budgetMax = 220
	for budget := 0; budget <= budgetMax; budget += step {
		cfg := followerConfig(t, srv.URL)
		cfg.Client = &http.Client{Transport: &flakyTransport{base: http.DefaultTransport.(*http.Transport).Clone(), budget: int64(budget)}}
		f, err := StartFollower(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Kill) // a failing test must not leave the stream open
		leaderWrite(t, ing, fmt.Sprintf("cut%d", budget), 2)
		assertIdentical(t, ing, f)
		if got := f.Info().FullResyncs; got != 0 {
			t.Errorf("budget %d: FullResyncs = %d, want 0", budget, got)
		}
		f.Close()
	}
}
