package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"attrank/internal/core"
	"attrank/internal/ingest"
	"attrank/internal/replication"
)

// fakeReplica implements Replica with directly settable state, so the
// follower-mode serving policy can be tested without standing up a
// leader and a replication stream.
type fakeReplica struct {
	ranking *ingest.Ranking
	info    replication.Info
	params  core.Params
}

func (f *fakeReplica) Ranking() *ingest.Ranking { return f.ranking }
func (f *fakeReplica) Info() replication.Info   { return f.info }
func (f *fakeReplica) Params() core.Params      { return f.params }

// replicaFixture builds a fake replica whose ranking is a real ranked
// view of the live seed corpus (borrowed from a static server).
func replicaFixture(t *testing.T) *fakeReplica {
	t.Helper()
	params := core.Params{Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.3}
	s, err := New(liveSeed(t), 1997, params)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeReplica{
		ranking: s.view(),
		params:  params,
		info: replication.Info{
			Leader:      "http://leader:8080",
			Connected:   true,
			LeaderEpoch: 1,
			LocalEpoch:  1,
		},
	}
}

func TestReplicaServesReads(t *testing.T) {
	rep := replicaFixture(t)
	srv := NewReplica(rep, 0)
	srv.SetLogf(nil)
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/top?n=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/top on replica: %d %s", rec.Code, rec.Body.String())
	}

	// /v1/stats must report the leader-adopted parameters, not a zero
	// local Params.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats on replica: %d %s", rec.Code, rec.Body.String())
	}
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats["alpha"]; got != 0.3 {
		t.Errorf("replica /v1/stats alpha = %v, want the leader's 0.3", got)
	}

	// Paper detail exercises Explain over the replicated attention and
	// recency vectors.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/paper/hot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/paper on replica: %d %s", rec.Code, rec.Body.String())
	}
}

func TestReplicaRejectsWritesAndRefresh(t *testing.T) {
	rep := replicaFixture(t)
	srv := NewReplica(rep, 0)
	srv.SetLogf(nil)
	h := srv.Handler()
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/papers", `{"id":"x","year":2000}`},
		{http.MethodPost, "/v1/citations", `{"citing":"hot","cited":"old"}`},
		{http.MethodPost, "/v1/batch", `{"papers":[]}`},
		{http.MethodPost, "/v1/refresh", ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s on replica: %d, want 503", tc.path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "leader") {
			t.Errorf("%s rejection does not point at the leader: %s", tc.path, rec.Body.String())
		}
	}
}

func TestReplicaEpochEndpoint(t *testing.T) {
	rep := replicaFixture(t)
	rep.info.LeaderEpoch = 7
	rep.info.LocalEpoch = 5
	rep.info.EpochLag = 2
	srv := NewReplica(rep, 0)
	srv.SetLogf(nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/epoch", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/epoch: %d %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Role        string           `json:"role"`
		Epoch       uint64           `json:"epoch"`
		Papers      int              `json:"papers"`
		Replication replication.Info `json:"replication"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Role != "follower" {
		t.Errorf("role = %q, want follower", body.Role)
	}
	if body.Epoch != 1 || body.Papers != 3 {
		t.Errorf("epoch/papers = %d/%d, want 1/3", body.Epoch, body.Papers)
	}
	if body.Replication.LeaderEpoch != 7 || body.Replication.EpochLag != 2 {
		t.Errorf("replication info not passed through: %+v", body.Replication)
	}
}

func TestReplicaReadiness(t *testing.T) {
	rep := replicaFixture(t)
	srv := NewReplica(rep, 3)
	srv.SetLogf(nil)
	h := srv.Handler()
	get := func() (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code, rec.Body.String()
	}

	if code, body := get(); code != http.StatusOK {
		t.Fatalf("in-sync replica /readyz: %d %s", code, body)
	}

	rep.info.EpochLag = 4 // over the max-lag 3 ceiling
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "behind the leader") {
		t.Fatalf("stale replica /readyz: %d %s", code, body)
	}

	rep.info.EpochLag = 3 // exactly at the ceiling: still ready
	if code, body := get(); code != http.StatusOK {
		t.Fatalf("replica at max lag /readyz: %d %s", code, body)
	}

	rep.ranking = nil
	if code, _ := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("bootstrapping replica /readyz: %d, want 503", code)
	}
}

func TestReplicaStaleShedsReads(t *testing.T) {
	rep := replicaFixture(t)
	srv := NewReplica(rep, 2)
	srv.SetLogf(nil)
	srv.ConfigureAdmission(AdmissionConfig{})
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/top", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("in-sync read: %d", rec.Code)
	}

	before := mShedTotal.With("stale_replica").Value()
	rep.info.EpochLag = 5
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/top", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stale read: %d, want 503", rec.Code)
	}
	if got := mShedTotal.With("stale_replica").Value() - before; got != 1 {
		t.Errorf("stale_replica shed counter moved by %d, want 1", got)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("stale shed response has no Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "stale") {
		t.Errorf("stale shed body: %s", rec.Body.String())
	}

	// The health probe and the replication endpoints themselves stay
	// exempt from the staleness gate.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz on stale replica: %d, want 200", rec.Code)
	}
}

func TestRateLimiterAllowsBurstThenSmooths(t *testing.T) {
	l := newRateLimiter(10) // 100ms interval, 400ms burst allowance
	granted := 0
	for i := 0; i < 100; i++ {
		if l.allow() {
			granted++
		}
	}
	// The burst window admits ~4 back-to-back requests (plus at most a
	// couple more for elapsed wall time); the rest must be rejected.
	if granted < 3 || granted > 8 {
		t.Fatalf("burst granted %d requests, want ~4", granted)
	}
	// After one interval, exactly one more slot opens.
	time.Sleep(120 * time.Millisecond)
	if !l.allow() {
		t.Fatal("no slot after one interval elapsed")
	}
	if l.allow() {
		t.Fatal("second immediate request admitted; GCRA should smooth to one per interval")
	}
}

func TestMaxRPSShedsWith429(t *testing.T) {
	rep := replicaFixture(t)
	srv := NewReplica(rep, 0)
	srv.SetLogf(nil)
	srv.ConfigureAdmission(AdmissionConfig{MaxRPS: 5})
	h := srv.Handler()
	before := mShedTotal.With("rate_limited").Value()
	var ok, limited int
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/top", nil))
		switch rec.Code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			limited++
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("rate-limited response has no Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", rec.Code)
		}
	}
	if ok == 0 || limited == 0 {
		t.Fatalf("ok=%d limited=%d: the cap should admit a burst and shed the rest", ok, limited)
	}
	if got := mShedTotal.With("rate_limited").Value() - before; got != int64(limited) {
		t.Errorf("rate_limited shed counter moved by %d, want %d", got, limited)
	}
}

// TestReplicationStreamFlushesThroughTelemetry guards the statusRecorder
// Flush/Unwrap forwarding. The replication WAL stream under /repl/ runs
// inside the telemetry middleware, and its handler flushes each frame; if
// the recorder hides the connection's http.Flusher, frames sit in the
// server's write buffer and a follower sees neither the response headers
// nor any heartbeat until 4 KiB accumulate. The handler here mimics the
// leader: write a frame, flush, then hold the stream open. The frame must
// reach the client while the handler is still blocked.
func TestReplicationStreamFlushesThroughTelemetry(t *testing.T) {
	rep := replicaFixture(t)
	srv := NewReplica(rep, 0)
	released := make(chan struct{})
	defer close(released)
	srv.AttachReplication(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write([]byte("beat")); err != nil {
			return
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Hold the stream open: without a working Flush above, the frame
		// only arrives when this handler returns, and the read below
		// times out instead.
		select {
		case <-r.Context().Done():
		case <-released:
		}
	}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/repl/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stream headers never arrived (flush swallowed by middleware?): %v", err)
	}
	defer resp.Body.Close()
	frame := make([]byte, 4)
	if _, err := io.ReadFull(resp.Body, frame); err != nil {
		t.Fatalf("flushed frame never arrived through the telemetry wrapper: %v", err)
	}
	if got := string(frame); got != "beat" {
		t.Fatalf("frame = %q, want %q", got, "beat")
	}
}
