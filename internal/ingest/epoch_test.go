package ingest

import (
	"testing"

	"attrank/internal/core"
	"attrank/internal/impact"
)

func citation(citing, cited string) Mutation {
	return Mutation{Kind: KindCitation, Citation: CitationMut{Citing: citing, Cited: cited}}
}

// TestCompact: an empty batch returns the base itself; otherwise papers
// append after the base's (whose indices stay put) and citations join.
func TestCompact(t *testing.T) {
	base := pushSeedNet(t)
	if got, err := Compact(base, nil); err != nil || got != base {
		t.Fatalf("Compact(base, nil) = %p, %v; want base itself", got, err)
	}
	net, err := Compact(base, []Mutation{
		{Kind: KindPaper, Paper: PaperMut{ID: "new", Year: 2010}},
		citation("new", "s3"),
		citation("s150", "s4"),
		{Kind: KindEpoch, Epoch: EpochMark{Epoch: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != base.N()+1 || net.Edges() != base.Edges()+2 {
		t.Fatalf("compacted %d papers / %d edges, want %d / %d", net.N(), net.Edges(), base.N()+1, base.Edges()+2)
	}
	if i, ok := net.Lookup("s150"); !ok || i != 150 {
		t.Fatalf("base paper s150 moved to %d (found %v)", i, ok)
	}
	if _, err := Compact(base, []Mutation{{Kind: KindPaper, Paper: PaperMut{ID: "s1", Year: 1990}}}); err == nil {
		t.Fatal("a duplicate paper compacted")
	}
}

// TestPushedCarriesTheFullEpoch: a push epoch keeps its full epoch's
// corpus, clock, attention, recency and impact state, takes the
// pusher's scores and bound, and advances only the edge counters.
func TestPushedCarriesTheFullEpoch(t *testing.T) {
	net := pushSeedNet(t)
	now := net.MaxYear()
	res, err := core.Rank(net, now, testParams())
	if err != nil {
		t.Fatal(err)
	}
	full := FullRanking(4, net, res, now, impact.Config{Enabled: true}.WithDefaults(), nil)
	if full.Impact == nil || full.Stats != net.ComputeStats() || full.Incremental {
		t.Fatalf("full epoch: impact %v, stats %v, incremental %v", full.Impact != nil, full.Stats, full.Incremental)
	}
	pu, err := core.NewPusher(net, now, testParams(), core.ReplayPushConfig(1e-8), res.Scores)
	if err != nil {
		t.Fatal(err)
	}
	if err := PushCitations(pu, net, []Mutation{citation("s150", "s3"), citation("s160", "s5")}); err != nil {
		t.Fatal(err)
	}
	st, err := pu.Settle()
	if err != nil {
		t.Fatal(err)
	}
	r := full.Pushed(5, pu, st.Pushes, 2)
	if r.Epoch != 5 || !r.Incremental || r.Staleness != pu.Bound() || r.Staleness <= 0 {
		t.Fatalf("push epoch %d: incremental %v, staleness %v (pusher bound %v)", r.Epoch, r.Incremental, r.Staleness, pu.Bound())
	}
	if r.Net != full.Net || r.RankedAt != full.RankedAt || r.Impact != full.Impact {
		t.Fatal("push epoch did not carry the full epoch's corpus, clock and impact state")
	}
	if &r.Result.Attention[0] != &res.Attention[0] || &r.Result.Recency[0] != &res.Recency[0] {
		t.Fatal("push epoch did not carry the full epoch's attention and recency")
	}
	if r.Result.Iterations != st.Pushes || len(r.Result.Residuals) != 1 || r.Result.Residuals[0] != r.Staleness {
		t.Fatalf("push result: %d iterations, residuals %v", r.Result.Iterations, r.Result.Residuals)
	}
	want := full.Stats
	want.Edges += 2
	want.MeanOutDeg = float64(want.Edges) / float64(want.Papers)
	if r.Stats != want {
		t.Fatalf("push stats %v, want %v", r.Stats, want)
	}
	scores := pu.Scores()
	for i, v := range r.Result.Scores {
		if v != scores[i] {
			t.Fatalf("paper %d: published %v, pusher %v", i, v, scores[i])
		}
	}
	if &r.Result.Scores[0] == &scores[0] {
		t.Fatal("push epoch aliases the pusher's live scores")
	}
}

// TestPushCitationsRejects: anything but a citation between papers of
// the base is an error, which sends the leader to the full path and the
// follower to a resync.
func TestPushCitationsRejects(t *testing.T) {
	net := pushSeedNet(t)
	now := net.MaxYear()
	res, err := core.Rank(net, now, testParams())
	if err != nil {
		t.Fatal(err)
	}
	for name, muts := range map[string][]Mutation{
		"paper":          {{Kind: KindPaper, Paper: PaperMut{ID: "new", Year: now}}},
		"unknown citing": {citation("nope", "s3")},
		"unknown cited":  {citation("s3", "nope")},
		"self-citation":  {citation("s3", "s3")},
		"duplicate":      {citation("s150", "s3"), citation("s150", "s3")},
	} {
		pu, err := core.NewPusher(net, now, testParams(), core.PushConfig{Tol: 1e-8}, res.Scores)
		if err != nil {
			t.Fatal(err)
		}
		if err := PushCitations(pu, net, muts); err == nil {
			t.Errorf("%s: pushed", name)
		}
	}
}
