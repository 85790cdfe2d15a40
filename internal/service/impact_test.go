package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/ingest"
	"attrank/internal/replication"
	"attrank/internal/synth"
)

// impactTestServer is testServer with the indicator layer enabled.
func impactTestServer(t testing.TB) *Server {
	s := testServer(t)
	if err := s.EnableIndicators(impact.Config{}); err != nil {
		t.Fatal(err)
	}
	return s
}

// dblpImpactServer serves a seeded 2k-paper DBLP-profile corpus with
// indicators on. It returns the handler, the corpus and the epoch the
// server must serve, computed without the server: the corpus ranked
// through the operator and classified by impact.Compute.
func dblpImpactServer(t *testing.T) (http.Handler, *graph.Network, *impact.Epoch) {
	t.Helper()
	net, err := synth.GenerateSeeded(synth.DBLP().Scale(0.1), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16, Workers: -1}
	cfg := impact.Config{Enabled: true}.WithDefaults()
	now := net.MaxYear()
	res, err := core.OperatorFor(net).Rank(now, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := impact.Compute(net, res.Scores, now, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net, now, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableIndicators(cfg); err != nil {
		t.Fatal(err)
	}
	return s.Handler(), net, want
}

// assertImpactView requires a served view to carry want's four scores,
// compared by bits, and classes for the paper it names.
func assertImpactView(t *testing.T, net *graph.Network, want *impact.Epoch, got impactBody) {
	t.Helper()
	idx, ok := net.Lookup(got.ID)
	if !ok {
		t.Fatalf("served unknown id %q", got.ID)
	}
	for _, served := range []struct {
		ind impact.Indicator
		got indicatorBody
	}{
		{impact.Popularity, got.Popularity},
		{impact.Influence, got.Influence},
		{impact.Impulse, got.Impulse},
		{impact.CitationCount, got.CC},
	} {
		if w := want.Scores(served.ind)[idx]; math.Float64bits(served.got.Score) != math.Float64bits(w) {
			t.Fatalf("paper %q %s score: served %v, recomputed %v", got.ID, served.ind, served.got.Score, w)
		}
		if w := want.Class(served.ind, idx).String(); served.got.Class != w {
			t.Fatalf("paper %q %s class: served %s, recomputed %s", got.ID, served.ind, served.got.Class, w)
		}
	}
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestImpactEndpoint: the single-paper view serves all four indicators
// with scores and class strings that match an in-process recompute of
// the same view.
func TestImpactEndpoint(t *testing.T) {
	s := impactTestServer(t)
	h := s.Handler()
	rec, body := get(t, h, "/v1/impact/hot")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	v := s.view()
	idx, ok := v.Net.Lookup("hot")
	if !ok {
		t.Fatal("hot missing from view")
	}
	for name, ind := range map[string]impact.Indicator{
		"popularity": impact.Popularity, "influence": impact.Influence,
		"impulse": impact.Impulse, "cc": impact.CitationCount,
	} {
		got, ok := body[name].(map[string]any)
		if !ok {
			t.Fatalf("response missing indicator %q: %v", name, body)
		}
		if got["score"].(float64) != v.Impact.Scores(ind)[idx] {
			t.Errorf("%s score = %v, want %v", name, got["score"], v.Impact.Scores(ind)[idx])
		}
		if got["class"].(string) != v.Impact.Class(ind, idx).String() {
			t.Errorf("%s class = %v, want %s", name, got["class"], v.Impact.Class(ind, idx))
		}
	}
	// Popularity IS the served AttRank score.
	if body["popularity"].(map[string]any)["score"].(float64) != v.Result.Scores[idx] {
		t.Error("popularity score diverges from the ranking score")
	}
	// A full static epoch is not stale.
	if body["stale"] == true {
		t.Error("full epoch served as stale")
	}
	if body["epoch"].(float64) != float64(v.Epoch) {
		t.Errorf("epoch = %v, want %d", body["epoch"], v.Epoch)
	}

	// A sample of a 2k corpus against an independent recompute.
	h, net, want := dblpImpactServer(t)
	for i := 0; i < net.N(); i += net.N() / 8 {
		id := net.Paper(int32(i)).ID
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/impact/"+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status = %d: %s", id, rec.Code, rec.Body.String())
		}
		var got impactBody
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.ID != id {
			t.Fatalf("GET %s served %q", id, got.ID)
		}
		assertImpactView(t, net, want, got)
	}
}

// TestImpactIDNormalization: DOI-like spellings of a known id resolve
// to the same paper. Full-URL spellings go through the batch body —
// the "//" in a GET path would be collapsed by ServeMux path cleaning.
func TestImpactIDNormalization(t *testing.T) {
	h := impactTestServer(t).Handler()
	for _, spelled := range []string{"hot", "HOT", "doi:hot", "doi:HOT", "doi.org/hot"} {
		rec, body := get(t, h, "/v1/impact/"+spelled)
		if rec.Code != http.StatusOK {
			t.Fatalf("id %q: status = %d: %s", spelled, rec.Code, rec.Body.String())
		}
		if body["id"] != "hot" {
			t.Fatalf("id %q resolved to %v, want hot", spelled, body["id"])
		}
	}
	rec := postJSON(t, h, "/v1/impact/batch",
		`{"ids":["https://doi.org/hot","http://dx.doi.org/hot"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status = %d: %s", rec.Code, rec.Body.String())
	}
	var batch struct {
		Results []struct {
			Impact *struct {
				ID string `json:"id"`
			} `json:"impact"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	for i, res := range batch.Results {
		if res.Impact == nil || res.Impact.ID != "hot" {
			t.Fatalf("batch result %d did not resolve to hot: %+v", i, res)
		}
	}
	if rec, _ := get(t, h, "/v1/impact/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id: status = %d", rec.Code)
	}
	if rec, _ := get(t, h, "/v1/impact/"); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty id: status = %d", rec.Code)
	}
}

// TestImpactDisabled: without EnableIndicators both endpoints answer
// 503, not 404 — the resource exists, the layer is off.
func TestImpactDisabled(t *testing.T) {
	h := testServer(t).Handler()
	if rec, _ := get(t, h, "/v1/impact/hot"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("single: status = %d", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/impact/batch", `{"ids":["hot"]}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch: status = %d", rec.Code)
	}
}

// TestImpactBatch: the batch endpoint serves many ids per round trip,
// fails unknown ids item-wise, serves duplicates independently, and
// bounds the batch size.
func TestImpactBatch(t *testing.T) {
	h := impactTestServer(t).Handler()
	rec := postJSON(t, h, "/v1/impact/batch", `{"ids":["hot","nope","doi:OLD","hot"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Epoch   uint64 `json:"epoch"`
		Results []struct {
			ID     string `json:"id"`
			Error  string `json:"error"`
			Impact *struct {
				ID         string `json:"id"`
				Popularity struct {
					Class string `json:"class"`
				} `json:"popularity"`
			} `json:"impact"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Results) != 4 {
		t.Fatalf("%d results, want 4", len(body.Results))
	}
	if body.Results[0].Impact == nil || body.Results[0].Impact.ID != "hot" {
		t.Fatalf("result 0: %+v", body.Results[0])
	}
	if body.Results[1].Error == "" || body.Results[1].Impact != nil {
		t.Fatalf("unknown id must fail item-wise: %+v", body.Results[1])
	}
	if body.Results[2].Impact == nil || body.Results[2].Impact.ID != "old" {
		t.Fatalf("DOI-spelled id did not resolve: %+v", body.Results[2])
	}
	if body.Results[3].Impact == nil || body.Results[3].Impact.Popularity.Class != body.Results[0].Impact.Popularity.Class {
		t.Fatal("duplicate id served differently")
	}

	// Bounds and method discipline.
	if rec := postJSON(t, h, "/v1/impact/batch", `{"ids":[]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d", rec.Code)
	}
	huge, _ := json.Marshal(map[string][]string{"ids": make([]string, maxImpactBatch+1)})
	if rec := postJSON(t, h, "/v1/impact/batch", string(huge)); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status = %d", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/impact/batch", `{"nope":1}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: status = %d", rec.Code)
	}
	if rec, _ := get(t, h, "/v1/impact/batch"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch: status = %d", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/impact/hot", `{}`); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST single: status = %d", rec.Code)
	}

	// Every paper of a 2k corpus, in full batches, against an
	// independent recompute.
	h, net, want := dblpImpactServer(t)
	ids := make([]string, net.N())
	for i := range ids {
		ids[i] = net.Paper(int32(i)).ID
	}
	for len(ids) > 0 {
		chunk := ids[:min(maxImpactBatch, len(ids))]
		ids = ids[len(chunk):]
		req, err := json.Marshal(impactBatchReq{IDs: chunk})
		if err != nil {
			t.Fatal(err)
		}
		rec := postJSON(t, h, "/v1/impact/batch", string(req))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		var got impactBatchBody
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != len(chunk) {
			t.Fatalf("%d results for %d ids", len(got.Results), len(chunk))
		}
		for i, res := range got.Results {
			if res.Body == nil || res.Body.ID != chunk[i] {
				t.Fatalf("id %q: %+v", chunk[i], res)
			}
			assertImpactView(t, net, want, *res.Body)
		}
	}
}

// TestImpactRefreshKeepsIndicators: a static /v1/refresh publishes a new
// epoch that still carries impact state.
func TestImpactRefreshKeepsIndicators(t *testing.T) {
	s := impactTestServer(t)
	h := s.Handler()
	if rec := postJSON(t, h, "/v1/refresh", ""); rec.Code != http.StatusOK {
		t.Fatalf("refresh: %d", rec.Code)
	}
	rec, body := get(t, h, "/v1/impact/hot")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-refresh impact: %d", rec.Code)
	}
	if body["epoch"].(float64) != float64(s.view().Epoch) {
		t.Errorf("epoch = %v, want %d", body["epoch"], s.view().Epoch)
	}
}

// TestImpactRouteLabels pins the metrics cardinality bound for the new
// subtree.
func TestImpactRouteLabels(t *testing.T) {
	cases := map[string]string{
		"/v1/impact/batch":       "/v1/impact/batch",
		"/v1/impact/hot":         "/v1/impact/{id}",
		"/v1/impact/doi:10.1/x":  "/v1/impact/{id}",
		"/v1/impact/":            "/v1/impact/{id}",
		"/v1/impact/batch/extra": "/v1/impact/{id}",
		"/v1/impactother":        "other",
	}
	for path, want := range cases {
		if got := routeLabel(path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestImpactPendingPaper: a full epoch published before its own
// indicators serves the previous full epoch's, marked stale and named
// by that epoch. A paper those do not cover answers 503 with
// Retry-After (item-wise in a batch) until the epoch's indicators are
// attached; /v1/epoch reports where the served indicators come from.
func TestImpactPendingPaper(t *testing.T) {
	params := core.Params{Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.3}
	cfg := impact.Config{Enabled: true}.WithDefaults()
	chain, err := ingest.NewChain(params, core.PushConfig{}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	attach := func(r *ingest.Ranking) *ingest.Ranking {
		t.Helper()
		ind, err := ingest.Indicators(r, cfg, -1)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := chain.Attach(r.Epoch, ind)
		if !ok {
			t.Fatalf("epoch %d: attach superseded", r.Epoch)
		}
		return r
	}
	first, err := chain.Rank(1, liveSeed(t), nil, 1997)
	if err != nil {
		t.Fatal(err)
	}
	attach(first)
	next, err := chain.Rank(2, chain.Last().Net, []ingest.Mutation{
		{Kind: ingest.KindPaper, Paper: ingest.PaperMut{ID: "fresh", Year: 1997}},
		{Kind: ingest.KindCitation, Citation: ingest.CitationMut{Citing: "fresh", Cited: "hot"}},
	}, 1997)
	if err != nil {
		t.Fatal(err)
	}
	rep := &fakeReplica{ranking: next, params: params,
		info: replication.Info{Connected: true, LeaderEpoch: 2, LocalEpoch: 2}}
	srv := NewReplica(rep, 0)
	srv.SetLogf(nil)
	h := srv.Handler()

	rec, body := get(t, h, "/v1/impact/fresh")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("uncovered paper: status %d, Retry-After %q: %s", rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
	rec, body = get(t, h, "/v1/impact/hot")
	if rec.Code != http.StatusOK || body["epoch"].(float64) != 1 || body["stale"] != true {
		t.Fatalf("covered paper under carried indicators: status %d, body %v", rec.Code, body)
	}
	rec = postJSON(t, h, "/v1/impact/batch", `{"ids":["fresh","hot","nope"]}`)
	var batch impactBatchBody
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d, %v: %s", rec.Code, err, rec.Body.String())
	}
	if r := batch.Results; len(r) != 3 || r[0].Error != pendingImpact || r[1].Body == nil || r[2].Error != "unknown paper" ||
		batch.Epoch != 1 || !batch.Stale {
		t.Fatalf("batch under carried indicators: %+v", batch)
	}
	if _, body := get(t, h, "/v1/epoch"); body["epoch"].(float64) != 2 || body["impact_epoch"].(float64) != 1 {
		t.Fatalf("/v1/epoch under carried indicators: %v", body)
	}

	rep.ranking = attach(next)
	rec, body = get(t, h, "/v1/impact/fresh")
	if rec.Code != http.StatusOK || body["epoch"].(float64) != 2 || body["stale"] == true {
		t.Fatalf("attached epoch: status %d, body %v", rec.Code, body)
	}
	if _, body := get(t, h, "/v1/epoch"); body["impact_epoch"].(float64) != 2 {
		t.Fatalf("/v1/epoch after the attach: %v", body)
	}
}
