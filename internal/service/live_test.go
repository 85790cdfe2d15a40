package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/ingest"
	"attrank/internal/synth"
)

func liveSeed(t testing.TB) *graph.Network {
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

// liveServer starts an ingester-backed server with background re-ranking
// debounced out of the way; tests drive epochs with /v1/refresh.
func liveServer(t testing.TB, seed *graph.Network, cfg ingest.Config) (*Server, *ingest.Ingester) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Params.Alpha == 0 && cfg.Params.Beta == 0 {
		cfg.Params = core.Params{Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.3}
	}
	if cfg.RerankAfter == 0 {
		cfg.RerankAfter = 1 << 20
	}
	if cfg.RerankEvery == 0 {
		cfg.RerankEvery = time.Hour
	}
	ing, err := ingest.Open(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	s := NewLive(ing)
	s.SetLogf(nil)
	return s, ing
}

func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if strings.HasPrefix(rec.Body.String(), "{") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("invalid JSON from %s: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec, out
}

func TestLiveWritePaperAndCitation(t *testing.T) {
	s, _ := liveServer(t, liveSeed(t), ingest.Config{})
	h := s.Handler()

	rec, body := post(t, h, "/v1/papers", `{"id":"fresh","year":1999,"authors":["dave"],"venue":"V"}`)
	if rec.Code != http.StatusOK || body["status"] != "accepted" {
		t.Fatalf("add paper: %d %v", rec.Code, body)
	}
	rec, body = post(t, h, "/v1/papers", `{"id":"fresh","year":1999}`)
	if rec.Code != http.StatusOK || body["status"] != "duplicate" {
		t.Fatalf("duplicate paper: %d %v", rec.Code, body)
	}
	rec, body = post(t, h, "/v1/citations", `{"citing":"fresh","cited":"hot"}`)
	if rec.Code != http.StatusOK || body["status"] != "accepted" {
		t.Fatalf("add citation: %d %v", rec.Code, body)
	}
	rec, body = post(t, h, "/v1/citations", `{"citing":"fresh","cited":"ghost"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad citation: %d %v", rec.Code, body)
	}
	rec, body = post(t, h, "/v1/papers", `{"id":"","year":2000}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty id: %d %v", rec.Code, body)
	}
	rec, _ = post(t, h, "/v1/papers", `{"id":"x","yr":12}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", rec.Code)
	}

	// The new paper is not served until an epoch swap...
	rec, _ = get(t, h, "/v1/paper/fresh")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("uncompacted paper visible: %d", rec.Code)
	}
	// ...and is served right after one.
	rec, body = post(t, h, "/v1/refresh", "")
	if rec.Code != http.StatusOK || body["epoch"].(float64) != 2 {
		t.Fatalf("refresh: %d %v", rec.Code, body)
	}
	rec, body = get(t, h, "/v1/paper/fresh")
	if rec.Code != http.StatusOK || body["citations"].(float64) != 0 {
		t.Fatalf("paper after swap: %d %v", rec.Code, body)
	}
	rec, body = get(t, h, "/v1/stats")
	if rec.Code != http.StatusOK || body["papers"].(float64) != 4 || body["epoch"].(float64) != 2 {
		t.Fatalf("stats after swap: %d %v", rec.Code, body)
	}
}

func TestLiveBatch(t *testing.T) {
	s, _ := liveServer(t, liveSeed(t), ingest.Config{})
	h := s.Handler()
	rec, body := post(t, h, "/v1/batch", `{
		"papers": [
			{"id":"b1","year":1999,"authors":["erin"],"venue":"V"},
			{"id":"old","year":1990},
			{"id":"","year":2000}
		],
		"citations": [
			{"citing":"b1","cited":"hot"},
			{"citing":"b1","cited":"nope"}
		]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	if body["accepted"].(float64) != 2 || body["duplicates"].(float64) != 1 {
		t.Fatalf("batch result: %v", body)
	}
	errs := body["errors"].([]any)
	if len(errs) != 2 {
		t.Fatalf("errors: %v", errs)
	}
	first := errs[0].(map[string]any)
	second := errs[1].(map[string]any)
	if first["kind"] != "paper" || first["index"].(float64) != 2 {
		t.Errorf("first error: %v", first)
	}
	if second["kind"] != "citation" || second["index"].(float64) != 1 {
		t.Errorf("second error: %v", second)
	}

	rec, _ = post(t, h, "/v1/batch", `{}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: %d", rec.Code)
	}
	rec, _ = post(t, h, "/v1/batch", `not json`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("garbage batch: %d", rec.Code)
	}
}

func TestLiveEpochEndpoint(t *testing.T) {
	s, _ := liveServer(t, liveSeed(t), ingest.Config{})
	h := s.Handler()
	rec, body := get(t, h, "/v1/epoch")
	if rec.Code != http.StatusOK {
		t.Fatalf("epoch: %d", rec.Code)
	}
	if body["live"] != true || body["epoch"].(float64) != 1 || body["pending"].(float64) != 0 {
		t.Fatalf("epoch body: %v", body)
	}
	if body["wal_bytes"].(float64) <= 0 {
		t.Errorf("wal_bytes = %v", body["wal_bytes"])
	}
	if body["last_rerank_iterations"].(float64) <= 0 {
		t.Errorf("last_rerank_iterations = %v", body["last_rerank_iterations"])
	}

	post(t, h, "/v1/papers", `{"id":"p","year":2000}`)
	_, body = get(t, h, "/v1/epoch")
	if body["pending"].(float64) != 1 {
		t.Errorf("pending after write: %v", body["pending"])
	}
	post(t, h, "/v1/refresh", "")
	_, body = get(t, h, "/v1/epoch")
	if body["pending"].(float64) != 0 || body["epoch"].(float64) != 2 {
		t.Errorf("after refresh: %v", body)
	}
}

func TestStaticEpochEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s.Handler(), "/v1/epoch")
	if rec.Code != http.StatusOK {
		t.Fatalf("epoch: %d", rec.Code)
	}
	if body["live"] != false || body["epoch"].(float64) != 1 {
		t.Errorf("static epoch body: %v", body)
	}
	if body["papers"].(float64) != 5 {
		t.Errorf("papers = %v", body["papers"])
	}
}

func TestStaticServerRejectsWrites(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	for _, path := range []string{"/v1/papers", "/v1/citations", "/v1/batch"} {
		rec, _ := post(t, h, path, `{"id":"x","year":2000}`)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("POST %s on static server: %d, want 503", path, rec.Code)
		}
	}
}

// TestStaticEpochChain pins the static server's epochs across startup,
// /v1/refresh, EnableIndicators and another /v1/refresh: they read 1 to
// 4, their scores equal a core.Tracker driven by hand (Update, Update,
// Seed with the served scores, Update), and enabling the indicators
// attaches them without changing a served ranking byte.
func TestStaticEpochChain(t *testing.T) {
	net, err := synth.GenerateSeeded(synth.DBLP().Scale(0.1), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Alpha: 0.2, Beta: 0.5, Gamma: 0.3, AttentionYears: 3, W: -0.16, Workers: -1}
	now := net.MaxYear()
	s, err := New(net, now, p)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogf(nil)
	h := s.Handler()
	tr, err := core.NewTracker(p)
	if err != nil {
		t.Fatal(err)
	}
	update := func() *core.Result {
		t.Helper()
		res, err := tr.Update(net, now)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	refresh := func() {
		t.Helper()
		if rec, body := post(t, h, "/v1/refresh", ""); rec.Code != http.StatusOK {
			t.Fatalf("refresh: %d %v", rec.Code, body)
		}
	}
	check := func(epoch uint64, want *core.Result, withImpact bool) *ingest.Ranking {
		t.Helper()
		v := s.view()
		if v.Epoch != epoch {
			t.Fatalf("epoch %d, want %d", v.Epoch, epoch)
		}
		if !slices.Equal(v.Result.Scores, want.Scores) {
			t.Fatalf("epoch %d: served scores differ from the hand-driven tracker's", epoch)
		}
		if (v.Impact != nil) != withImpact {
			t.Fatalf("epoch %d: impact attached = %v, want %v", epoch, v.Impact != nil, withImpact)
		}
		return v
	}
	body := func(path string) []byte {
		t.Helper()
		rec, _ := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		return rec.Body.Bytes()
	}

	check(1, update(), false)
	refresh()
	want := update()
	v := check(2, want, false)
	paper := "/v1/paper/" + v.Net.Paper(int32(v.Order[7])).ID
	top, one := body("/v1/top?n=50"), body(paper)

	if err := s.EnableIndicators(impact.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Seed(net, want.Scores); err != nil {
		t.Fatal(err)
	}
	check(3, want, true)
	if !bytes.Equal(body("/v1/top?n=50"), top) || !bytes.Equal(body(paper), one) {
		t.Fatal("enabling indicators changed a served /v1/top or /v1/paper body")
	}
	refresh()
	check(4, update(), true)
}

func TestHealthAndReadiness(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	rec, body := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz: %d %v", rec.Code, body)
	}
	rec, body = get(t, h, "/readyz")
	if rec.Code != http.StatusOK || body["status"] != "ready" {
		t.Errorf("readyz: %d %v", rec.Code, body)
	}
}

func TestReadinessOnEmptyCorpus(t *testing.T) {
	s, _ := liveServer(t, nil, ingest.Config{})
	h := s.Handler()
	rec, _ := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Errorf("healthz on empty corpus: %d", rec.Code)
	}
	rec, _ = get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz before first ranking: %d, want 503", rec.Code)
	}
	rec, _ = get(t, h, "/v1/top")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("top before first ranking: %d, want 503", rec.Code)
	}
	post(t, h, "/v1/papers", `{"id":"first","year":2020}`)
	post(t, h, "/v1/refresh", "")
	rec, body := get(t, h, "/readyz")
	if rec.Code != http.StatusOK || body["epoch"].(float64) != 1 {
		t.Errorf("readyz after first ranking: %d %v", rec.Code, body)
	}
}

func TestRequestLogMiddleware(t *testing.T) {
	s := testServer(t)
	var mu sync.Mutex
	var lines []string
	s.SetLogf(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	h := s.Handler()
	get(t, h, "/v1/stats")
	get(t, h, "/v1/paper/ghost")
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("logged %d lines: %v", len(lines), lines)
	}
	if !strings.Contains(lines[0], "GET /v1/stats 200") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[1], "GET /v1/paper/ghost 404") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

// TestConcurrentReadsDuringEpochSwaps is the acceptance race test: it
// hammers /v1/top and /v1/paper/{id} from many goroutines while writers
// stream mutations in and the scheduler swaps epochs underneath. Every
// response must come from one internally consistent view.
func TestConcurrentReadsDuringEpochSwaps(t *testing.T) {
	s, ing := liveServer(t, liveSeed(t), ingest.Config{
		RerankAfter: 4,
		RerankEvery: 2 * time.Millisecond,
	})
	h := s.Handler()

	const writers, perWriter = 3, 40
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", wr, i)
				body := fmt.Sprintf(`{"papers":[{"id":%q,"year":%d,"authors":["a%d"]}],"citations":[{"citing":%q,"cited":"hot"}]}`,
					id, 1997+i%3, i%7, id)
				rec, _ := post(t, h, "/v1/batch", body)
				if rec.Code != http.StatusOK {
					t.Errorf("batch %s: %d %s", id, rec.Code, rec.Body.String())
					return
				}
			}
		}(wr)
	}

	stop := make(chan struct{})
	var rg sync.WaitGroup
	for g := 0; g < 6; g++ {
		rg.Add(1)
		go func(g int) {
			defer rg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					rec, _ := get(t, h, "/v1/top?n=10")
					if rec.Code != http.StatusOK {
						t.Errorf("top: %d %s", rec.Code, rec.Body.String())
						return
					}
					var papers []map[string]any
					if err := json.Unmarshal(rec.Body.Bytes(), &papers); err != nil {
						t.Errorf("top body: %v", err)
						return
					}
					for _, p := range papers {
						if p["rank"].(float64) < 1 {
							t.Errorf("bad rank in %v", p)
							return
						}
					}
				case 1:
					rec, body := get(t, h, "/v1/paper/hot")
					if rec.Code != http.StatusOK || body["id"] != "hot" {
						t.Errorf("paper: %d %v", rec.Code, body)
						return
					}
				case 2:
					rec, _ := get(t, h, "/v1/stats")
					if rec.Code != http.StatusOK {
						t.Errorf("stats: %d", rec.Code)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, body := get(t, h, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("final stats: %d", rec.Code)
	}
	want := float64(3 + writers*perWriter)
	if body["papers"].(float64) != want {
		t.Errorf("final papers = %v, want %v", body["papers"], want)
	}
	// Every streamed paper must now be served with its citation edge.
	rec, body = get(t, h, fmt.Sprintf("/v1/paper/w%d-%d", writers-1, perWriter-1))
	if rec.Code != http.StatusOK {
		t.Fatalf("streamed paper: %d %v", rec.Code, body)
	}
}

// TestWriteBodyLimit: a write body beyond maxWriteBody is refused with
// 400 before anything reaches the WAL, on every write endpoint.
func TestWriteBodyLimit(t *testing.T) {
	s, ing := liveServer(t, liveSeed(t), ingest.Config{})
	h := s.Handler()
	huge := strings.Repeat("x", maxWriteBody)
	for path, body := range map[string]string{
		"/v1/papers":    `{"id":"` + huge + `","year":2000}`,
		"/v1/citations": `{"citing":"` + huge + `","cited":"hot"}`,
		"/v1/batch":     `{"papers":[{"id":"` + huge + `","year":2000}]}`,
	} {
		rec, _ := post(t, h, path, body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
			t.Errorf("POST %s with a %d-byte body: %d %.80s, want 400 naming the size", path, len(body), rec.Code, rec.Body.String())
		}
	}
	if st := ing.Status(); st.Pending != 0 {
		t.Fatalf("%d mutations pending after refused bodies, want 0", st.Pending)
	}
}
