package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/ingest"
	"attrank/internal/metrics"
	"attrank/internal/replication"
	"attrank/internal/synth"
)

// plateauNet is 400 papers in 20 identical, disjoint 20-paper citation
// chains: papers at the same chain position tie exactly, so pages cut
// through score plateaus, and single-citation writes stay small enough
// for the push path to publish them as incremental epochs.
func plateauNet(t testing.TB) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < 400; i++ {
		if _, err := b.AddPaper(fmt.Sprintf("s%d", i), 1990+i%20, nil, ""); err != nil {
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

// pushIngester opens a live ingester with the incremental push path on:
// every write debounces straight into its own epoch.
func pushIngester(t *testing.T) *ingest.Ingester {
	t.Helper()
	ing, err := ingest.Open(plateauNet(t), ingest.Config{
		Dir:         t.TempDir(),
		Params:      core.Params{Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.3},
		RerankAfter: 1,
		RerankEvery: time.Millisecond,
		PushTol:     1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	return ing
}

// pushCitation adds one citation and waits for its push epoch.
func pushCitation(t *testing.T, ing *ingest.Ingester, citing, cited string) {
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

// checkTopPages requires every /v1/top page s serves to equal
// metrics.TopK(scores, offset+n)[offset:] on the current epoch, with
// 1-based ranks continuing from the offset.
func checkTopPages(t *testing.T, s *Server, wantIncremental bool) {
	t.Helper()
	v := s.view()
	if v.Incremental != wantIncremental {
		t.Fatalf("epoch %d: Incremental = %v, want %v", v.Epoch, v.Incremental, wantIncremental)
	}
	h := s.Handler()
	n := v.Net.N()
	for _, offset := range []int{0, 1, n - 1, n, 10000} {
		for _, size := range []int{1, 7, 1000} {
			path := fmt.Sprintf("/v1/top?n=%d&offset=%d", size, offset)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s -> %d %s", path, rec.Code, rec.Body.String())
			}
			var page []paperBody
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			want := metrics.TopK(v.Result.Scores, offset+size)
			want = want[min(offset, len(want)):]
			if len(page) != len(want) {
				t.Fatalf("%s: %d entries, want %d", path, len(page), len(want))
			}
			for k, idx := range want {
				got := page[k]
				if got.ID != v.Net.Paper(int32(idx)).ID || got.Rank != offset+k+1 || got.Score != v.Result.Scores[idx] {
					t.Fatalf("%s entry %d: got %s rank %d score %v, want %s rank %d score %v",
						path, k, got.ID, got.Rank, got.Score, v.Net.Paper(int32(idx)).ID, offset+k+1, v.Result.Scores[idx])
				}
			}
		}
	}
	if now := s.view(); now != v {
		t.Fatalf("epoch moved from %d to %d while checking pages", v.Epoch, now.Epoch)
	}
}

// TestTopPageMatchesTopK: /v1/top pages are slices of the epoch's
// published order, and must equal a per-request TopK selection on every
// kind of epoch each server mode publishes.
func TestTopPageMatchesTopK(t *testing.T) {
	params := core.Params{Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.3}

	t.Run("static", func(t *testing.T) {
		net := plateauNet(t)
		s, err := New(net, net.MaxYear(), params)
		if err != nil {
			t.Fatal(err)
		}
		s.SetLogf(nil)
		v := s.view()
		ties := 0
		for k := 1; k < len(v.Order); k++ {
			if v.Result.Scores[v.Order[k]] == v.Result.Scores[v.Order[k-1]] {
				ties++
			}
		}
		if ties == 0 {
			t.Fatal("fixture has no score plateaus")
		}
		checkTopPages(t, s, false)
		if err := s.src.(*staticSource).refresh(); err != nil {
			t.Fatal(err)
		}
		checkTopPages(t, s, false)
	})

	t.Run("live", func(t *testing.T) {
		ing := pushIngester(t)
		s := NewLive(ing)
		s.SetLogf(nil)
		checkTopPages(t, s, false) // epoch 1: the full path
		pushCitation(t, ing, "s150", "s3")
		checkTopPages(t, s, true)
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		checkTopPages(t, s, false) // the reconciling full epoch
	})

	t.Run("replica", func(t *testing.T) {
		ing := pushIngester(t)
		lead := httptest.NewServer(replication.NewLeader(ing, replication.LeaderConfig{
			Poll: time.Millisecond, Heartbeat: 20 * time.Millisecond,
		}).Handler())
		t.Cleanup(lead.Close)
		f, err := replication.StartFollower(replication.FollowerConfig{
			Leader: lead.URL, Dir: t.TempDir(),
			RetryMin: 2 * time.Millisecond, RetryMax: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		s := NewReplica(f, 0)
		s.SetLogf(nil)
		wait := func() {
			t.Helper()
			if err := f.WaitEpoch(ing.Ranking().Epoch, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		wait()
		checkTopPages(t, s, false) // the bootstrap seed
		pushCitation(t, ing, "s165", "s8")
		wait()
		checkTopPages(t, s, true) // a replayed push epoch
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
		wait()
		checkTopPages(t, s, false) // a replayed full epoch
	})
}

// BenchmarkTopHandler serves /v1/top?n=27 on the 100k-paper synthetic
// network: the per-request work of a top page on a large corpus.
func BenchmarkTopHandler(b *testing.B) {
	net, err := synth.Generate(synth.DBLP().Scale(5))
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(net, net.MaxYear(), core.Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16})
	if err != nil {
		b.Fatal(err)
	}
	s.SetLogf(nil)
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/top?n=27", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
