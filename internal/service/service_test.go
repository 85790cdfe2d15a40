package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
)

func testServer(t testing.TB) *Server {
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
	add("new1", 1998, []string{"dave"}, "")
	add("new2", 1998, nil, "")
	for _, e := range [][2]string{
		{"mid", "old"}, {"hot", "old"}, {"hot", "mid"},
		{"new1", "hot"}, {"new2", "hot"},
	} {
		b.AddEdge(e[0], e[1])
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net, 1998, core.Params{
		Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]any
	if strings.HasPrefix(rec.Body.String(), "{") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("invalid JSON from %s: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec, body
}

func TestStatsEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	rec, body := get(t, h, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if body["papers"].(float64) != 5 || body["citations"].(float64) != 5 {
		t.Errorf("stats = %v", body)
	}
	if body["converged"] != true {
		t.Error("ranking did not converge")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
}

func TestTopEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/top?n=3", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var papers []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &papers); err != nil {
		t.Fatal(err)
	}
	if len(papers) != 3 {
		t.Fatalf("got %d papers", len(papers))
	}
	if papers[0]["id"] != "hot" {
		t.Errorf("top paper = %v, want hot", papers[0]["id"])
	}
	if papers[0]["rank"].(float64) != 1 {
		t.Errorf("rank = %v", papers[0]["rank"])
	}
	// Decomposition percentages must be present and sum near 100.
	sum := papers[0]["flow_pct"].(float64) + papers[0]["attention_pct"].(float64) + papers[0]["recency_pct"].(float64)
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("decomposition pct sum = %v", sum)
	}
}

func TestTopEndpointValidation(t *testing.T) {
	h := testServer(t).Handler()
	for _, q := range []string{"n=0", "n=-3", "n=9999", "n=abc"} {
		rec, _ := get(t, h, "/v1/top?"+q)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, rec.Code)
		}
	}
}

func TestPaperEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	rec, body := get(t, h, "/v1/paper/hot")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if body["id"] != "hot" || body["year"].(float64) != 1996 {
		t.Errorf("paper = %v", body)
	}
	if body["citations"].(float64) != 2 {
		t.Errorf("citations = %v", body["citations"])
	}
	if body["venue"] != "W" {
		t.Errorf("venue = %v", body["venue"])
	}

	rec, _ = get(t, h, "/v1/paper/ghost")
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing paper: status = %d, want 404", rec.Code)
	}
	rec, _ = get(t, h, "/v1/paper/")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty id: status = %d, want 400", rec.Code)
	}
}

func TestCompareEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	rec, body := get(t, h, "/v1/compare?a=hot&b=old")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	a := body["a"].(map[string]any)
	bb := body["b"].(map[string]any)
	if a["id"] != "hot" || bb["id"] != "old" {
		t.Errorf("compare = %v", body)
	}

	rec, _ = get(t, h, "/v1/compare?a=hot")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing b: status = %d", rec.Code)
	}
	rec, _ = get(t, h, "/v1/compare?a=hot&b=ghost")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown b: status = %d", rec.Code)
	}
}

func TestRefreshEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/refresh", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	// Warm restart over the same corpus converges almost immediately.
	if body["iterations"].(float64) > 3 {
		t.Errorf("refresh iterations = %v, want ≤ 3", body["iterations"])
	}

	rec2, _ := get(t, h, "/v1/refresh")
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET refresh: status = %d, want 405", rec2.Code)
	}
}

func TestMethodGuards(t *testing.T) {
	h := testServer(t).Handler()
	for _, path := range []string{"/v1/stats", "/v1/top", "/v1/paper/hot", "/v1/compare?a=hot&b=old"} {
		req := httptest.NewRequest(http.MethodPost, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status = %d, want 405", path, rec.Code)
		}
	}
}

func TestNewRejectsInvalidParams(t *testing.T) {
	b := graph.NewBuilder()
	if _, err := b.AddPaper("a", 2000, nil, ""); err != nil {
		t.Fatal(err)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(net, 2000, core.Params{Alpha: 2}); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestConcurrentReadsAndRefresh hammers the server from multiple
// goroutines while refreshes run, exercising the RWMutex paths.
func TestConcurrentReadsAndRefresh(t *testing.T) {
	h := testServer(t).Handler()
	done := make(chan error, 20)
	for g := 0; g < 10; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				req := httptest.NewRequest(http.MethodGet, "/v1/top?n=3", nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					done <- fmt.Errorf("top status %d", rec.Code)
					return
				}
			}
			done <- nil
		}()
		go func() {
			for i := 0; i < 5; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/refresh", nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					done <- fmt.Errorf("refresh status %d", rec.Code)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestAuthorsEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/authors?n=2", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d authors", len(out))
	}
	if out[0]["rank"].(float64) != 1 {
		t.Errorf("rank = %v", out[0]["rank"])
	}
	if out[0]["impact"].(float64) <= out[1]["impact"].(float64) {
		t.Error("authors not sorted by impact")
	}

	rec2, _ := get(t, h, "/v1/authors?n=0")
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("n=0: status = %d", rec2.Code)
	}
}

func TestAuthorsEndpointNoMetadata(t *testing.T) {
	b := graph.NewBuilder()
	b.AddPaper("a", 2000, nil, "")
	b.AddPaper("c", 2001, nil, "")
	b.AddEdge("c", "a")
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net, 2001, core.Params{Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 2, W: -0.3})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := get(t, s.Handler(), "/v1/authors")
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
}

func TestRelatedEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	// new1 and new2 both cite hot → they are coupled.
	req := httptest.NewRequest(http.MethodGet, "/v1/related/new1?n=5", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no related papers")
	}
	if out[0]["id"] != "new2" {
		t.Errorf("top related = %v, want new2", out[0]["id"])
	}
	if out[0]["coupled"].(float64) != 1 {
		t.Errorf("coupled = %v, want 1", out[0]["coupled"])
	}

	rec2, _ := get(t, h, "/v1/related/ghost")
	if rec2.Code != http.StatusNotFound {
		t.Errorf("unknown paper: status = %d", rec2.Code)
	}
	rec3, _ := get(t, h, "/v1/related/hot?n=0")
	if rec3.Code != http.StatusBadRequest {
		t.Errorf("n=0: status = %d", rec3.Code)
	}
}

func TestListenAndServeGracefulShutdown(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, "127.0.0.1:0") }()
	// Give the listener a moment, then cancel: shutdown must be clean.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestServeListenerDrainsInFlight pins the graceful half of the
// shutdown contract: requests already inside the handler when the
// context is cancelled still get their complete responses, and
// ServeListener reports the clean drain as nil.
func TestServeListenerDrainsInFlight(t *testing.T) {
	const inFlight = 8
	const body = "drained"
	entered := make(chan struct{}, inFlight)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll() // unblocks the handlers if the test fails early
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		fmt.Fprint(w, body)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ServeListener(ctx, ln, handler, ServeOptions{}) }()

	type result struct {
		status int
		body   string
		err    error
	}
	results := make(chan result, inFlight)
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for i := 0; i < inFlight; i++ {
		go func() {
			resp, err := client.Get("http://" + addr + "/")
			if err != nil {
				results <- result{err: err}
				return
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- result{status: resp.StatusCode, body: string(b), err: err}
		}()
	}
	for i := 0; i < inFlight; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d requests reached the handler", i, inFlight)
		}
	}

	// Cancel, and release the handlers only once shutdown has closed
	// the listener, so every request is still in flight when the drain
	// begins.
	cancel()
	for deadline := time.Now().Add(5 * time.Second); ; {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	releaseAll()

	for i := 0; i < inFlight; i++ {
		r := <-results
		if r.err != nil || r.status != http.StatusOK || r.body != body {
			t.Errorf("request %d: status %d body %q err %v, want 200 %q", i, r.status, r.body, r.err, body)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeListener returned %v after a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeListener did not return")
	}
}

func TestListenAndServeBadAddr(t *testing.T) {
	s := testServer(t)
	if err := s.ListenAndServe(context.Background(), "256.0.0.1:99999"); err == nil {
		t.Error("bad address accepted")
	}
}
