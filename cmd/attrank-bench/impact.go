package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/service"
	"attrank/internal/synth"
)

// runImpactSmoke is the end-to-end gate for the multi-indicator layer
// (-impact): it starts an in-process server with -indicators over a
// seeded synthetic corpus, recomputes the impact epoch independently
// through the library path, and cross-checks every served score
// (bit-for-bit — Go's JSON float encoding round-trips float64 exactly)
// and class against the recompute. Exits non-zero on any mismatch.
func runImpactSmoke(papers int, profile string) error {
	prof, err := synth.ProfileByName(profile)
	if err != nil {
		return err
	}
	prof = prof.Scale(float64(papers) / float64(prof.Papers))
	fmt.Printf("generating %s network with %d papers…\n", prof.Name, prof.Papers)
	corpus, err := synth.GenerateSeeded(prof, 1)
	if err != nil {
		return err
	}

	params := core.Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16, Workers: -1}
	icfg := impact.Config{Enabled: true}.WithDefaults()
	now := corpus.MaxYear()

	// The independent expectation: the same corpus ranked and classified
	// through the library path, bypassing the HTTP layer entirely.
	res, err := core.OperatorFor(corpus).Rank(now, params)
	if err != nil {
		return err
	}
	want, err := impact.Compute(corpus, res.Scores, now, icfg)
	if err != nil {
		return err
	}

	srv, err := service.New(corpus, now, params)
	if err != nil {
		return err
	}
	srv.SetLogf(nil)
	if err := srv.EnableIndicators(icfg); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- service.ServeListener(ctx, ln, srv.Handler(), service.ServeOptions{})
	}()
	base := "http://" + ln.Addr().String()

	ids := sampleIDs(corpus, 512)
	fmt.Printf("cross-checking %d served papers against the in-process recompute…\n", len(ids))
	checked, err := checkImpactBatch(base, corpus.Lookup, want, ids)
	if err != nil {
		return err
	}
	// A handful of single-paper GETs so both endpoints are on the hook.
	for _, id := range ids[:min(8, len(ids))] {
		if err := checkImpactSingle(base, corpus.Lookup, want, id); err != nil {
			return err
		}
		checked++
	}

	cancel()
	if err := <-serveErr; err != nil {
		return fmt.Errorf("server exited with error: %w", err)
	}
	fmt.Printf("impact smoke OK: %d served views match the recompute bit-for-bit\n", checked)
	return nil
}

// impactWire is the response shape both endpoints share per paper.
type impactWire struct {
	ID         string        `json:"id"`
	Popularity indicatorWire `json:"popularity"`
	Influence  indicatorWire `json:"influence"`
	Impulse    indicatorWire `json:"impulse"`
	CC         indicatorWire `json:"cc"`
}

type indicatorWire struct {
	Score float64 `json:"score"`
	Class string  `json:"class"`
}

// checkImpact compares one served view against the recomputed epoch.
func checkImpact(lookup func(string) (int32, bool), want *impact.Epoch, w impactWire) error {
	idx, ok := lookup(w.ID)
	if !ok {
		return fmt.Errorf("served unknown id %q", w.ID)
	}
	for _, ind := range []struct {
		name string
		ind  impact.Indicator
		got  indicatorWire
	}{
		{"popularity", impact.Popularity, w.Popularity},
		{"influence", impact.Influence, w.Influence},
		{"impulse", impact.Impulse, w.Impulse},
		{"cc", impact.CitationCount, w.CC},
	} {
		wantScore := want.Scores(ind.ind)[idx]
		if math.Float64bits(ind.got.Score) != math.Float64bits(wantScore) {
			return fmt.Errorf("paper %q %s score: served %v, recomputed %v",
				w.ID, ind.name, ind.got.Score, wantScore)
		}
		if wantClass := want.Class(ind.ind, idx).String(); ind.got.Class != wantClass {
			return fmt.Errorf("paper %q %s class: served %s, recomputed %s",
				w.ID, ind.name, ind.got.Class, wantClass)
		}
	}
	return nil
}

func checkImpactSingle(base string, lookup func(string) (int32, bool), want *impact.Epoch, id string) error {
	resp, err := http.Get(base + "/v1/impact/" + id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/impact/%s: status %d", id, resp.StatusCode)
	}
	var w impactWire
	if err := json.NewDecoder(resp.Body).Decode(&w); err != nil {
		return err
	}
	return checkImpact(lookup, want, w)
}

func checkImpactBatch(base string, lookup func(string) (int32, bool), want *impact.Epoch, ids []string) (int, error) {
	body, err := json.Marshal(map[string][]string{"ids": ids})
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(base+"/v1/impact/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/impact/batch: status %d", resp.StatusCode)
	}
	var out struct {
		Results []struct {
			ID     string      `json:"id"`
			Error  string      `json:"error"`
			Impact *impactWire `json:"impact"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	if len(out.Results) != len(ids) {
		return 0, fmt.Errorf("batch returned %d results for %d ids", len(out.Results), len(ids))
	}
	for _, r := range out.Results {
		if r.Impact == nil {
			return 0, fmt.Errorf("batch id %q failed: %s", r.ID, r.Error)
		}
		if err := checkImpact(lookup, want, *r.Impact); err != nil {
			return 0, err
		}
	}
	return len(out.Results), nil
}

// sampleIDs picks up to k evenly spaced paper IDs from the corpus for
// the impact checks.
func sampleIDs(n *graph.Network, k int) []string {
	total := n.N()
	if total == 0 {
		return nil
	}
	if k > total {
		k = total
	}
	ids := make([]string, 0, k)
	step := total / k
	if step == 0 {
		step = 1
	}
	for i := 0; i < total && len(ids) < k; i += step {
		ids = append(ids, n.Paper(int32(i)).ID)
	}
	return ids
}
