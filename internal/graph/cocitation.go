package graph

import "sort"

// Co-citation and bibliographic coupling are the two classic relatedness
// measures on citation networks (Small 1973; Kessler 1963). They power
// the "related papers" feature: two papers are related when they are
// often cited together (co-citation) or cite the same prior work
// (coupling).

// Related scores one paper's relatedness to others.
type Related struct {
	Paper int32
	// CoCited is the co-citation count; Coupled the shared-reference
	// count. Score is their sum, the simple combined relatedness used
	// for ranking.
	CoCited, Coupled int
	Score            int
}

// RelatedPapers returns the k papers most related to paper i, combining
// co-citation (papers cited alongside i) and bibliographic coupling
// (papers sharing references with i). Papers with zero relatedness are
// omitted; ties break by node index.
func (n *Network) RelatedPapers(i int32, k int) []Related {
	if k <= 0 {
		return nil
	}
	coc := make(map[int32]int)
	// Co-citation: walk i's citers and credit everything else they cite.
	n.Citers(i, func(citer int32) {
		n.References(citer, func(other int32) {
			if other != i {
				coc[other]++
			}
		})
	})
	coup := make(map[int32]int)
	// Coupling: walk i's references and credit their other citers.
	n.References(i, func(ref int32) {
		n.Citers(ref, func(other int32) {
			if other != i {
				coup[other]++
			}
		})
	})
	all := make(map[int32]Related, len(coc)+len(coup))
	for p, c := range coc {
		r := all[p]
		r.Paper = p
		r.CoCited = c
		all[p] = r
	}
	for p, c := range coup {
		r := all[p]
		r.Paper = p
		r.Coupled = c
		all[p] = r
	}
	out := make([]Related, 0, len(all))
	for _, r := range all {
		r.Score = r.CoCited + r.Coupled
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Paper < out[b].Paper
	})
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}
