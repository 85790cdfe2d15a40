package ingest

import (
	"fmt"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/metrics"
)

// This file is the one place an epoch's Ranking is built: Chain's
// Seed, Rank and Push, and Ranking.Pushed. Every publisher owns one
// Chain — the ingester (full and push epochs), the replication
// follower (the leader's shipped epochs) and the static server
// (startup rank, /v1/refresh and enabling indicators) — so the state
// between epochs has one owner type. A follower builds each shipped
// full epoch with Seed and each shipped push epoch with Pushed, the
// builders the leader's own epochs go through, so it publishes the
// leader's Rankings field for field without a copy of their code
// (DESIGN.md §7, §12).

// index returns a ranking's order (node indices by score descending,
// ties by ascending index) and its inverse, the 0-based position of
// every node: the two read-side indexes every published Ranking carries.
func index(scores []float64) (order, positions []int) {
	order = metrics.Ordering(scores)
	positions = make([]int, len(order))
	for pos, idx := range order {
		positions[idx] = pos
	}
	return order, positions
}

// Compact folds muts, in order, into a fresh immutable network built
// on base (base's papers keep their indices). Epoch markers in muts are
// ignored; an empty muts returns base itself.
func Compact(base *graph.Network, muts []Mutation) (*graph.Network, error) {
	if len(muts) == 0 {
		return base, nil
	}
	b := graph.NewBuilderFrom(base)
	for _, m := range muts {
		switch m.Kind {
		case KindPaper:
			if _, err := b.AddPaper(m.Paper.ID, m.Paper.Year, m.Paper.Authors, m.Paper.Venue); err != nil {
				return nil, err
			}
		case KindCitation:
			b.AddEdge(m.Citation.Citing, m.Citation.Cited)
		}
	}
	return b.Build()
}

// Chain carries the state between epochs: the warm-start tracker, the
// last full epoch, and the push streak since it (nil between streaks).
// Every publisher owns one (the leader, each follower, a static
// server), so a leader and its followers start every epoch from the
// same exact state. A Chain is owned by one goroutine.
type Chain struct {
	tracker   *core.Tracker
	pushCfg   core.PushConfig
	impactCfg impact.Config
	logf      func(string, ...any)
	last      *Ranking
	pusher    *core.Pusher
}

// NewChain returns an empty chain. Push epochs settle under pushCfg.
func NewChain(params core.Params, pushCfg core.PushConfig, impactCfg impact.Config, logf func(string, ...any)) (*Chain, error) {
	tracker, err := core.NewTracker(params)
	if err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Chain{tracker: tracker, pushCfg: pushCfg, impactCfg: impactCfg, logf: logf}, nil
}

// Seed starts the chain at a full epoch whose exact result is already
// known — a follower's shipped or saved epoch, or a static server's
// published one — and returns it. influence is the epoch's own
// influence PageRank (impact.InfluenceRank on net), from which Seed
// derives and attaches the epoch's indicators; with a nil influence
// the epoch carries Last's indicators, as Rank does. Seed itself runs
// no solve.
func (c *Chain) Seed(epoch uint64, net *graph.Network, res, influence *core.Result, rankedAt int) (*Ranking, error) {
	c.pusher = nil
	if err := c.tracker.Seed(net, res.Scores); err != nil {
		return nil, err
	}
	c.last = c.full(epoch, net, res, rankedAt)
	if influence != nil && c.impactCfg.Enabled {
		ind, err := impact.Derive(net, res.Scores, influence, rankedAt, c.impactCfg)
		if err != nil {
			c.logf("impact: epoch indicators skipped: %v", err)
		} else {
			c.Attach(epoch, ind)
		}
	}
	return c.last, nil
}

// Rank builds the full epoch that compacts muts onto base, ranked at
// rankedAt and warm-started from the previous full epoch. It ends any
// push streak, also when it fails. The epoch carries the previous full
// epoch's indicators: Rank never solves them (Indicators computes
// them, Attach sets them).
func (c *Chain) Rank(epoch uint64, base *graph.Network, muts []Mutation, rankedAt int) (*Ranking, error) {
	c.pusher = nil
	net, err := Compact(base, muts)
	if err != nil {
		return nil, fmt.Errorf("compacting: %w", err)
	}
	res, err := c.tracker.Update(net, rankedAt)
	if err != nil {
		return nil, err
	}
	c.last = c.full(epoch, net, res, rankedAt)
	return c.last, nil
}

// full builds the Ranking of a full epoch: res holds exact scores of
// net at ranking time rankedAt. It carries Last's indicators. The
// read-side indexes and the corpus statistics are derived here.
func (c *Chain) full(epoch uint64, net *graph.Network, res *core.Result, rankedAt int) *Ranking {
	order, positions := index(res.Scores)
	r := &Ranking{
		Epoch:     epoch,
		Net:       net,
		Result:    res,
		Order:     order,
		Positions: positions,
		Stats:     net.ComputeStats(),
		RankedAt:  rankedAt,
	}
	if c.last != nil {
		r.Impact, r.ImpactEpoch = c.last.Impact, c.last.ImpactEpoch
	}
	return r
}

// Indicators computes full epoch r's own indicators (impact.ComputeOn
// on its network, scores and ranking time), with the influence
// PageRank on at most workers cores: nil when cfg is disabled. It
// reads only r, which is immutable, so it may run on any goroutine;
// its result is bit-identical for every worker count.
func Indicators(r *Ranking, cfg impact.Config, workers int) (*impact.Epoch, error) {
	if !cfg.Enabled {
		return nil, nil
	}
	return impact.ComputeOn(r.Net, r.Result.Scores, r.RankedAt, cfg, workers)
}

// Attach sets ind, the indicators of full epoch epoch, on Last and
// returns the new Last. When a later full epoch has superseded epoch
// it attaches nothing and reports false. Push epochs built afterwards
// carry the attached indicators; a view already published is replaced
// by the caller (Ranking.WithIndicators). Only the chain's owner calls
// it.
func (c *Chain) Attach(epoch uint64, ind *impact.Epoch) (*Ranking, bool) {
	if c.last == nil || c.last.Epoch != epoch {
		return nil, false
	}
	c.last = c.last.WithIndicators(ind, epoch)
	return c.last, true
}

// WithIndicators returns a copy of r that carries ind, the indicators
// of full epoch epoch: the view a publisher republishes once epoch's
// indicators are attached.
func (r *Ranking) WithIndicators(ind *impact.Epoch, epoch uint64) *Ranking {
	v := *r
	v.Impact, v.ImpactEpoch = ind, epoch
	return &v
}

// Push builds the push epoch that absorbs muts into the streak since
// Last; the streak's first Push seeds a core.Pusher from Last's exact
// scores. Only citations between papers of Last's network can be
// pushed. Any error — another mutation, one the pusher rejects, a
// budget breach — ends the streak, so the next Push starts afresh.
// Last.Pushed builds the epoch.
func (c *Chain) Push(epoch uint64, muts []Mutation) (_ *Ranking, err error) {
	defer func() {
		if err != nil {
			c.pusher = nil
		}
	}()
	last := c.last
	if last == nil {
		return nil, fmt.Errorf("push epoch %d without a full epoch", epoch)
	}
	if c.pusher == nil {
		pu, err := core.NewPusher(last.Net, last.RankedAt, c.tracker.Params(), c.pushCfg, last.Result.Scores)
		if err != nil {
			return nil, fmt.Errorf("push seed: %w", err)
		}
		c.pusher = pu
	}
	for _, m := range muts {
		if m.Kind != KindCitation {
			return nil, fmt.Errorf("push batch holds a non-citation mutation (kind %d)", m.Kind)
		}
		ci, okc := last.Net.Lookup(m.Citation.Citing)
		ti, okt := last.Net.Lookup(m.Citation.Cited)
		if !okc || !okt {
			return nil, fmt.Errorf("push cites unknown paper %q→%q", m.Citation.Citing, m.Citation.Cited)
		}
		if err := c.pusher.AddCitation(ci, ti); err != nil {
			return nil, err
		}
	}
	st, err := c.pusher.Settle()
	if err != nil {
		return nil, err
	}
	return last.Pushed(epoch, c.pusher.CopyScores(), st.Pushes, c.pusher.Applied(), st.Bound), nil
}

// Pushed builds the push epoch that follows full epoch r: scores are
// the settled push scores (taken, not copied), pushes the settle's
// push count, citations the citations absorbed since r and bound the
// L1 staleness bound. Chain.Push publishes through it, and so does a
// replication follower applying a push epoch the leader shipped.
//
// The push epoch keeps r's corpus, clock, attention, recency and
// indicators. Stats advances r's edge counters by the citations;
// degree distributions stay as compacted until the reconciling full
// epoch.
func (r *Ranking) Pushed(epoch uint64, scores []float64, pushes, citations int, bound float64) *Ranking {
	order, positions := index(scores)
	stats := r.Stats
	stats.Edges += citations
	if stats.Papers > 0 {
		stats.MeanOutDeg = float64(stats.Edges) / float64(stats.Papers)
	}
	return &Ranking{
		Epoch: epoch,
		Net:   r.Net,
		Result: &core.Result{
			Scores:     scores,
			Iterations: pushes,
			Converged:  true,
			Residuals:  []float64{bound},
			Attention:  r.Result.Attention,
			Recency:    r.Result.Recency,
		},
		Order:       order,
		Positions:   positions,
		Stats:       stats,
		RankedAt:    r.RankedAt,
		Incremental: true,
		Staleness:   bound,
		Impact:      r.Impact,
		ImpactEpoch: r.ImpactEpoch,
	}
}

// EndStreak drops the push streak, as a leader must when it cannot
// publish the epoch its last Push built.
func (c *Chain) EndStreak() { c.pusher = nil }

// Backlog returns how many citations the push streak has absorbed.
func (c *Chain) Backlog() int {
	if c.pusher == nil {
		return 0
	}
	return c.pusher.Applied()
}

// Last returns the last full epoch (nil before the first Seed or Rank).
func (c *Chain) Last() *Ranking { return c.last }
