package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"attrank/internal/core"
	"attrank/internal/graph"
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

// noBudgets settles pushes to tol with every budget check off.
func noBudgets(tol float64) core.PushConfig {
	return core.PushConfig{Tol: tol, MaxResidual: -1, MaxTouchedFrac: -1, MaxPushes: -1}
}

// seededChain returns a chain seeded at epoch 4 with the exact rank of
// net (and its influence PageRank, with indicators on), its pushes
// settling under cfg.
func seededChain(t *testing.T, net *graph.Network, cfg core.PushConfig, impactCfg impact.Config) (*Chain, *Ranking) {
	t.Helper()
	now := net.MaxYear()
	res, err := core.Rank(net, now, testParams())
	if err != nil {
		t.Fatal(err)
	}
	var influence *core.Result
	if impactCfg.Enabled {
		if influence, err = impact.InfluenceRank(net, impactCfg); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewChain(testParams(), cfg, impactCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Seed(4, net, res, influence, now)
	if err != nil {
		t.Fatal(err)
	}
	return c, full
}

// TestPushedCarriesTheFullEpoch: a push epoch keeps its full epoch's
// corpus, clock, attention, recency and impact state, takes the
// pusher's scores and bound, and advances only the edge counters.
func TestPushedCarriesTheFullEpoch(t *testing.T) {
	net := pushSeedNet(t)
	now := net.MaxYear()
	c, full := seededChain(t, net, noBudgets(1e-8), impact.Config{Enabled: true}.WithDefaults())
	res := full.Result
	if full.Impact == nil || full.Stats != net.ComputeStats() || full.Incremental || c.Last() != full {
		t.Fatalf("full epoch: impact %v, stats %v, incremental %v", full.Impact != nil, full.Stats, full.Incremental)
	}
	r, err := c.Push(5, []Mutation{citation("s150", "s3"), citation("s160", "s5")})
	if err != nil {
		t.Fatal(err)
	}
	// An independent pusher fed the same citations is the reference.
	ref, err := core.NewPusher(net, now, testParams(), noBudgets(1e-8), res.Scores)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int32{{150, 3}, {160, 5}} {
		if err := ref.AddCitation(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ref.Settle()
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch != 5 || !r.Incremental || r.Staleness != ref.Bound() || r.Staleness <= 0 {
		t.Fatalf("push epoch %d: incremental %v, staleness %v (pusher bound %v)", r.Epoch, r.Incremental, r.Staleness, ref.Bound())
	}
	if r.Net != full.Net || r.RankedAt != full.RankedAt || r.Impact != full.Impact || c.Last() != full {
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
	if r.Stats != want || c.Backlog() != 2 {
		t.Fatalf("push stats %v (backlog %d), want %v", r.Stats, c.Backlog(), want)
	}
	scores := ref.Scores()
	for i, v := range r.Result.Scores {
		if v != scores[i] {
			t.Fatalf("paper %d: published %v, pusher %v", i, v, scores[i])
		}
	}
	if &r.Result.Scores[0] == &c.pusher.Scores()[0] {
		t.Fatal("push epoch aliases the pusher's live scores")
	}
}

// TestPushCitationsRejects: anything but a citation between papers of
// the full epoch's network is an error, which ends the push streak and
// sends the leader to the full path and the follower to a resync.
func TestPushCitationsRejects(t *testing.T) {
	net := pushSeedNet(t)
	now := net.MaxYear()
	for name, muts := range map[string][]Mutation{
		"paper":          {{Kind: KindPaper, Paper: PaperMut{ID: "new", Year: now}}},
		"unknown citing": {citation("nope", "s3")},
		"unknown cited":  {citation("s3", "nope")},
		"self-citation":  {citation("s3", "s3")},
		"duplicate":      {citation("s150", "s3"), citation("s150", "s3")},
	} {
		c, _ := seededChain(t, net, core.PushConfig{Tol: 1e-8}, impact.Config{})
		if _, err := c.Push(5, []Mutation{citation("s160", "s5")}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Push(6, muts); err == nil {
			t.Errorf("%s: pushed", name)
		}
		if c.pusher != nil || c.Backlog() != 0 {
			t.Errorf("%s: rejected batch left a streak of %d citations", name, c.Backlog())
		}
	}
}

// assertSameRanking requires two Rankings to be equal field for field:
// scores bit for bit, the read-side indexes, stats, clock, staleness,
// iterations, residuals and impact presence.
func assertSameRanking(t *testing.T, label string, a, b *Ranking) {
	t.Helper()
	if a.Epoch != b.Epoch || a.RankedAt != b.RankedAt || a.Incremental != b.Incremental ||
		a.Staleness != b.Staleness || a.Stats != b.Stats || (a.Impact == nil) != (b.Impact == nil) {
		t.Fatalf("%s: epoch %d/%d, ranked at %d/%d, incremental %v/%v, staleness %v/%v, stats %v/%v, impact %v/%v", label,
			a.Epoch, b.Epoch, a.RankedAt, b.RankedAt, a.Incremental, b.Incremental, a.Staleness, b.Staleness,
			a.Stats, b.Stats, a.Impact != nil, b.Impact != nil)
	}
	ra, rb := a.Result, b.Result
	if ra.Iterations != rb.Iterations || !slices.Equal(ra.Residuals, rb.Residuals) {
		t.Fatalf("%s: %d/%d iterations, residuals %v/%v", label, ra.Iterations, rb.Iterations, ra.Residuals, rb.Residuals)
	}
	if len(ra.Scores) != len(rb.Scores) || !slices.Equal(a.Order, b.Order) || !slices.Equal(a.Positions, b.Positions) {
		t.Fatalf("%s: order differs", label)
	}
	for i := range ra.Scores {
		if math.Float64bits(ra.Scores[i]) != math.Float64bits(rb.Scores[i]) {
			t.Fatalf("%s: paper %d scored %v, want %v", label, i, ra.Scores[i], rb.Scores[i])
		}
	}
}

// shipped returns what a replication leader ships of r, copied: the
// follower's view of r's result and of its influence PageRank (nil
// without indicators).
func shipped(r *Ranking) (res, influence *core.Result) {
	res = &core.Result{Scores: slices.Clone(r.Result.Scores), Iterations: r.Result.Iterations,
		Converged: r.Result.Converged, Residuals: slices.Clone(r.Result.Residuals),
		Attention: slices.Clone(r.Result.Attention), Recency: slices.Clone(r.Result.Recency)}
	if r.Impact != nil {
		influence = &core.Result{Scores: slices.Clone(r.Impact.Scores(impact.Influence)),
			Iterations: r.Impact.PRIterations, Converged: r.Impact.PRConverged}
	}
	return res, influence
}

// TestChainReplayMatchesLeader: a follower's chain — seeded from the
// leader's first full epoch — rebuilds every later epoch of a leader's
// chain field for field from what the leader ships, over a random
// sequence of full and push epochs: a full epoch through Seed on the
// follower's own compaction, a push epoch through Pushed on the last
// full one. Neither runs a solve or a push. The leader attaches each
// full epoch's indicators (Indicators, Attach) before shipping it, so
// the follower's Seed derives the same classes from the influence. A push the leader's budgets
// refuse never reaches the follower; the leader takes the full path
// instead.
func TestChainReplayMatchesLeader(t *testing.T) {
	net := pushSeedNet(t)
	const tol = 1e-8
	impactCfg := impact.Config{Enabled: true}.WithDefaults()
	leader, err := NewChain(testParams(), core.PushConfig{Tol: tol}, impactCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rank := func(e uint64, base *graph.Network, muts []Mutation, rankedAt int) *Ranking {
		t.Helper()
		r, err := leader.Rank(e, base, muts, rankedAt)
		if err != nil {
			t.Fatal(err)
		}
		ind, err := Indicators(r, impactCfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := leader.Attach(e, ind)
		if !ok {
			t.Fatalf("epoch %d: attach superseded", e)
		}
		return r
	}
	first := rank(1, net, nil, net.MaxYear())
	follower, err := NewChain(testParams(), core.PushConfig{}, impactCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, influence := shipped(first)
	if _, err := follower.Seed(1, net, res, influence, first.RankedAt); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	edges := make(map[[2]int]bool)
	var delta []Mutation // mutations since the last full epoch
	// newCitations draws n new citations from citing papers in
	// [lo, hi) to cited papers in [0, cited). Citations among the oldest
	// papers mostly stay inside the leader's push budgets; most others
	// touch too much of the corpus, or move too much attention mass,
	// and are refused.
	newCitations := func(n, lo, hi, cited int) []Mutation {
		var muts []Mutation
		for len(muts) < n {
			e := [2]int{lo + rng.Intn(hi-lo), rng.Intn(cited)}
			if e[0] == e[1] || edges[e] || net.HasEdge(int32(e[0]), int32(e[1])) {
				continue
			}
			edges[e] = true
			muts = append(muts, citation(fmt.Sprintf("s%d", e[0]), fmt.Sprintf("s%d", e[1])))
		}
		return muts
	}
	compiles := core.KernelCompiles()
	pushes, fulls, refused := 0, 0, 0
	for e := uint64(2); e <= 40; e++ {
		last := leader.Last()
		if rng.Intn(3) > 0 {
			batch := newCitations(1+rng.Intn(3), 20, 50, 20)
			if rng.Intn(4) == 0 {
				batch = newCitations(1, 0, net.N(), net.N())
			}
			r, err := leader.Push(e, batch)
			if err == nil {
				delta = append(delta, batch...)
				got := follower.Last().Pushed(e, slices.Clone(r.Result.Scores), r.Result.Iterations, len(delta), r.Staleness)
				assertSameRanking(t, fmt.Sprintf("push epoch %d", e), got, r)
				pushes++
				continue
			}
			delta = append(delta, batch...) // the leader falls back to the full path
			refused++
		} else if rng.Intn(2) == 0 {
			id := fmt.Sprintf("n%d", e)
			delta = append(delta, Mutation{Kind: KindPaper, Paper: PaperMut{ID: id, Year: last.RankedAt + rng.Intn(2)}},
				citation(id, fmt.Sprintf("s%d", rng.Intn(net.N()))))
		}
		rankedAt := last.RankedAt
		for _, m := range delta {
			if m.Kind == KindPaper && m.Paper.Year > rankedAt {
				rankedAt = m.Paper.Year
			}
		}
		r := rank(e, last.Net, delta, rankedAt)
		compacted, err := Compact(follower.Last().Net, delta)
		if err != nil {
			t.Fatal(err)
		}
		before := core.KernelCompiles()
		res, influence := shipped(r)
		got, err := follower.Seed(e, compacted, res, influence, rankedAt)
		if err != nil {
			t.Fatal(err)
		}
		if core.KernelCompiles() != before {
			t.Fatalf("full epoch %d: the follower compiled a kernel", e)
		}
		assertSameRanking(t, fmt.Sprintf("full epoch %d", e), got, r)
		if got.Impact == nil || got.Impact.Thresholds(impact.Influence) != r.Impact.Thresholds(impact.Influence) ||
			got.Impact.Thresholds(impact.Impulse) != r.Impact.Thresholds(impact.Impulse) {
			t.Fatalf("full epoch %d: follower classes differ from the leader's", e)
		}
		delta = nil
		fulls++
	}
	if pushes == 0 || fulls == 0 || refused == 0 {
		t.Fatalf("sequence ran %d push, %d full epochs and %d refused pushes; want each", pushes, fulls, refused)
	}
	if compiles == core.KernelCompiles() {
		t.Fatal("the leader compiled no kernel: the check above proves nothing")
	}
}

// TestChainPushErrorEndsStreak: a failed Push ends the streak even
// after it absorbed part of its batch, so the next Push starts afresh
// from Last — exactly as a fresh chain seeded with Last pushes it.
func TestChainPushErrorEndsStreak(t *testing.T) {
	net := pushSeedNet(t)
	c, full := seededChain(t, net, noBudgets(1e-8), impact.Config{})
	if _, err := c.Push(5, []Mutation{citation("s160", "s5")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(6, []Mutation{citation("s150", "s3"), citation("s3", "s3")}); err == nil {
		t.Fatal("a self-citation pushed")
	}
	batch := []Mutation{citation("s170", "s9"), citation("s120", "s40")}
	got, err := c.Push(6, batch)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewChain(testParams(), noBudgets(1e-8), impact.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Seed(full.Epoch, full.Net, full.Result, nil, full.RankedAt); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Push(6, batch)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, "push after a failed push", got, want)
}
