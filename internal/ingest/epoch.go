package ingest

import (
	"fmt"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/metrics"
)

// This file is the one place an epoch's Ranking is built. Every
// publisher — the ingester's full and push paths, the replication
// follower's marker replay and bootstrap seeding, and the static
// server — goes through these functions, so a follower replaying the
// leader's log reproduces the leader's Rankings field for field rather
// than by keeping a parallel copy in step (DESIGN.md §7, §12).

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

// FullRanking builds the Ranking of a full epoch: res holds exact
// scores of net at ranking time rankedAt. The read-side indexes, the
// corpus statistics and (when impactCfg enables them) the impact
// indicators are all derived here.
func FullRanking(epoch uint64, net *graph.Network, res *core.Result, rankedAt int, impactCfg impact.Config, logf func(string, ...any)) *Ranking {
	order, positions := index(res.Scores)
	return &Ranking{
		Epoch:     epoch,
		Net:       net,
		Result:    res,
		Order:     order,
		Positions: positions,
		Stats:     net.ComputeStats(),
		RankedAt:  rankedAt,
		Impact:    impact.ForRanking(net, res.Scores, rankedAt, impactCfg, logf),
	}
}

// Pushed builds a push epoch that follows full epoch r. pu was seeded
// from r's scores and has since absorbed backlog citations; pushes is
// the push count of its latest Settle, published as Result.Iterations.
// Net, RankedAt, attention, recency and the impact state carry over
// from r. Stats advances r's edge counters by the backlog; degree
// distributions stay as compacted until the reconciling full epoch.
func (r *Ranking) Pushed(epoch uint64, pu *core.Pusher, pushes, backlog int) *Ranking {
	scores := pu.CopyScores()
	bound := pu.Bound()
	order, positions := index(scores)
	stats := r.Stats
	stats.Edges += backlog
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
	}
}

// PushCitations feeds muts to pu in order, resolving paper IDs against
// base (the network pu was seeded over). Only citations between papers
// of base can be pushed; any other mutation is an error, as is one pu
// rejects. On error pu has absorbed an unknown prefix and must be
// discarded.
func PushCitations(pu *core.Pusher, base *graph.Network, muts []Mutation) error {
	for _, m := range muts {
		if m.Kind != KindCitation {
			return fmt.Errorf("push batch holds a non-citation mutation (kind %d)", m.Kind)
		}
		ci, okc := base.Lookup(m.Citation.Citing)
		ti, okt := base.Lookup(m.Citation.Cited)
		if !okc || !okt {
			return fmt.Errorf("push cites unknown paper %q→%q", m.Citation.Citing, m.Citation.Cited)
		}
		if err := pu.AddCitation(ci, ti); err != nil {
			return err
		}
	}
	return nil
}
