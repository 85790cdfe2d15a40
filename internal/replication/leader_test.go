package replication

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestLeaderCapsStreams: a leader holds at most maxStreams /repl/wal
// streams open. The next one is answered 503 with Retry-After and
// counted in attrank_repl_rejected_total{endpoint="wal"}, and once
// the clients cancel, the streams' goroutines and
// attrank_repl_streams_open return to where they were.
func TestLeaderCapsStreams(t *testing.T) {
	ing, srv := startLeader(t)
	cur := ing.ReplCursor()
	url := fmt.Sprintf("%s%s?instance=%d&gen=%d&from=%d", srv.URL, walPath, cur.Instance, cur.Gen, cur.Offset)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	goroutines, open, rejected := runtime.NumGoroutine(), mStreamsOpen.Value(), mRejected.With("wal").Value()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	get := func() *http.Response {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := 0; i < maxStreams; i++ {
		resp := get()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: %s", i, resp.Status)
		}
	}
	resp := get()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("stream %d: %s, Retry-After %q; want 503 with Retry-After", maxStreams+1, resp.Status, resp.Header.Get("Retry-After"))
	}
	if got := mRejected.With("wal").Value() - rejected; got != 1 {
		t.Fatalf("attrank_repl_rejected_total{endpoint=\"wal\"} rose by %d after one rejected stream, want 1", got)
	}
	if got := mStreamsOpen.Value(); got != open+maxStreams {
		t.Fatalf("attrank_repl_streams_open = %v with %d streams open, want %v", got, maxStreams, open+maxStreams)
	}

	cancel()
	tr.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines || mStreamsOpen.Value() != open {
		if time.Now().After(deadline) {
			t.Fatalf("after cancel: %d goroutines (baseline %d), attrank_repl_streams_open %v (baseline %v)",
				runtime.NumGoroutine(), goroutines, mStreamsOpen.Value(), open)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLeaderCapsBootstraps: with maxBootstraps /repl/state downloads in
// flight, the next is answered 503 with Retry-After and counted in
// attrank_repl_rejected_total{endpoint="state"}; a freed slot serves
// again, uncounted.
func TestLeaderCapsBootstraps(t *testing.T) {
	ing, _ := startLeader(t)
	l := NewLeader(ing, LeaderConfig{})
	for i := 0; i < maxBootstraps; i++ {
		l.bootstraps <- struct{}{}
	}
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		l.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, statePath, nil))
		return rec
	}
	rejected := mRejected.With("state").Value()
	if rec := get(); rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("bootstrap %d: %d, Retry-After %q; want 503 with Retry-After", maxBootstraps+1, rec.Code, rec.Header().Get("Retry-After"))
	}
	if got := mRejected.With("state").Value() - rejected; got != 1 {
		t.Fatalf("attrank_repl_rejected_total{endpoint=\"state\"} rose by %d after one rejected bootstrap, want 1", got)
	}
	<-l.bootstraps
	if rec := get(); rec.Code != http.StatusOK {
		t.Fatalf("bootstrap with a free slot: %d, want 200", rec.Code)
	}
	if got := mRejected.With("state").Value() - rejected; got != 1 {
		t.Fatalf("attrank_repl_rejected_total{endpoint=\"state\"} rose by %d after a served bootstrap, want 1", got)
	}
}
