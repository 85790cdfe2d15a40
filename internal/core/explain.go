package core

import (
	"fmt"
	"sort"

	"attrank/internal/graph"
)

// Explanation decomposes one paper's converged AttRank score into the
// contributions of the three mechanisms of Eq. 4 — useful for auditing
// why a paper ranks where it does.
//
// At the fixed point, AR(p) = α·Σ_j S[p,j]·AR(j) + β·A(p) + γ·T(p), so
// the three addends partition the score exactly:
// Flow + Attention + Recency = Score (up to convergence tolerance).
type Explanation struct {
	// Paper is the explained node.
	Paper int32
	// Score is the converged AttRank score.
	Score float64
	// Flow is the α-weighted mass arriving through reference lists
	// (including this paper's share of dangling mass).
	Flow float64
	// Attention is β·A(p), the recent-citation mechanism's contribution.
	Attention float64
	// Recency is γ·T(p), the publication-age mechanism's contribution.
	Recency float64
	// TopCiters lists the citing papers contributing the most flow,
	// largest first (at most 5).
	TopCiters []CiterContribution
}

// CiterContribution is one citing paper's share of the flow term.
type CiterContribution struct {
	Citer int32
	// Mass is α·S[p,citer]·AR(citer).
	Mass float64
}

// String renders the decomposition compactly.
func (e Explanation) String() string {
	pct := func(v float64) float64 {
		if e.Score == 0 {
			return 0
		}
		return 100 * v / e.Score
	}
	return fmt.Sprintf("score=%.3e flow=%.1f%% attention=%.1f%% recency=%.1f%%",
		e.Score, pct(e.Flow), pct(e.Attention), pct(e.Recency))
}

// Explain decomposes the score of paper i from a converged Result. The
// Result must come from Rank on the same network, time and parameters,
// and its Scores must not change afterwards: the dangling mass every
// explanation shares is summed on the first call for a network and
// cached on the Result, so explaining k papers of one ranking costs one
// O(N) scan, not k. Explain is safe for concurrent use on one Result.
func Explain(net *graph.Network, res *Result, p Params, i int32) (Explanation, error) {
	if err := p.Validate(); err != nil {
		return Explanation{}, err
	}
	if res == nil || len(res.Scores) != net.N() {
		return Explanation{}, fmt.Errorf("core: explain: result does not match network (%d scores, %d papers)",
			resultLen(res), net.N())
	}
	if i < 0 || int(i) >= net.N() {
		return Explanation{}, fmt.Errorf("core: explain: paper index %d out of range", i)
	}
	e := Explanation{
		Paper:     i,
		Score:     res.Scores[i],
		Attention: p.Beta * res.Attention[i],
		Recency:   p.Gamma * res.Recency[i],
	}

	// Flow: α·Σ over citers of AR(citer)/outdeg(citer), plus the uniform
	// share of dangling mass.
	if p.Alpha > 0 {
		var citers []CiterContribution
		net.Citers(i, func(c int32) {
			if d := net.OutDegree(c); d > 0 {
				citers = append(citers, CiterContribution{
					Citer: c,
					Mass:  p.Alpha * res.Scores[c] / float64(d),
				})
			}
		})
		e.Flow = p.Alpha * danglingMassOf(net, res) / float64(net.N())
		for _, c := range citers {
			e.Flow += c.Mass
		}
		sort.Slice(citers, func(a, b int) bool { return citers[a].Mass > citers[b].Mass })
		if len(citers) > 5 {
			citers = citers[:5]
		}
		e.TopCiters = citers
	}
	return e, nil
}

// danglingMass is Σ Scores[j] over the papers of net without
// references, the mass the random surfer spreads uniformly.
type danglingMass struct {
	net  *graph.Network
	mass float64
}

// danglingMassOf returns res's dangling mass on net, computed at most
// once per (res, net) pair. A cached value for another network is never
// reused; concurrent first calls may both scan, and both store the same
// sum, since the loop order is fixed.
func danglingMassOf(net *graph.Network, res *Result) float64 {
	if d := res.dangling.Load(); d != nil && d.net == net {
		return d.mass
	}
	mass := 0.0
	for j := int32(0); int(j) < net.N(); j++ {
		if net.OutDegree(j) == 0 {
			mass += res.Scores[j]
		}
	}
	res.dangling.Store(&danglingMass{net: net, mass: mass})
	return mass
}

func resultLen(res *Result) int {
	if res == nil {
		return 0
	}
	return len(res.Scores)
}
