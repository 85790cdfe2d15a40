package core

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"attrank/internal/graph"
)

// Metamorphic properties of AttRank: structured changes to the input
// network must move scores in the predicted direction.

// cloneWithExtraCitation rebuilds net with one additional citation from a
// fresh paper published at `year` to target.
func cloneWithExtraCitation(t *testing.T, net *graph.Network, targetID string, year int) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	for i := int32(0); int(i) < net.N(); i++ {
		p := net.Paper(i)
		if _, err := b.AddPaper(p.ID, p.Year, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.AddPaper("extra-citer", year, nil, ""); err != nil {
		t.Fatal(err)
	}
	for i := int32(0); int(i) < net.N(); i++ {
		id := net.Paper(i).ID
		net.References(i, func(ref int32) {
			b.AddEdge(id, net.Paper(ref).ID)
		})
	}
	b.AddEdge("extra-citer", targetID)
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// attentionAroundExtraCitation picks a seeded target in a seeded random
// network and returns its attention score before and after one extra
// citation from a brand-new paper.
func attentionAroundExtraCitation(t *testing.T, seed int64) (before, after float64) {
	net := randomNet(t, seed, 40)
	now := net.MaxYear()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	target := net.Paper(int32(rng.Intn(net.N()))).ID
	tIdx, _ := net.Lookup(target)
	grown := cloneWithExtraCitation(t, net, target, now)
	gIdx, _ := grown.Lookup(target)
	return AttentionVector(net, now, 3)[tIdx], AttentionVector(grown, now, 3)[gIdx]
}

// TestMetamorphicRecentCitationRaisesAttention: adding a citation from a
// brand-new paper must strictly increase the target's attention score
// (its share of window citations grows; everyone else's shrinks) —
// unless the target already held every window citation, where A is
// exactly 1 before and must stay exactly 1.
func TestMetamorphicRecentCitationRaisesAttention(t *testing.T) {
	holds := func(seed int64) bool {
		before, after := attentionAroundExtraCitation(t, seed)
		if before == 1 {
			return after == 1
		}
		return after > before
	}
	// Seeds whose target already holds every window citation.
	for _, seed := range []int64{8974, 12905, 19420} {
		if before, _ := attentionAroundExtraCitation(t, seed); before != 1 {
			t.Errorf("seed %d: A before = %v, want the saturated case A = 1", seed, before)
		}
		if !holds(seed) {
			t.Errorf("seed %d: saturated attention moved", seed)
		}
	}
	if err := quick.Check(holds, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMetamorphicRecentCitationRaisesAttOnlyScore: under ATT-ONLY (β=1)
// the score is the attention vector, so the cited paper's score must
// rise.
func TestMetamorphicRecentCitationRaisesAttOnlyScore(t *testing.T) {
	net := randomNet(t, 77, 60)
	now := net.MaxYear()
	target := net.TopByInDegree(5)[4]
	targetID := net.Paper(target).ID

	p := Params{Beta: 1, AttentionYears: 3, W: -0.2}
	before, err := Rank(net, now, p)
	if err != nil {
		t.Fatal(err)
	}
	grown := cloneWithExtraCitation(t, net, targetID, now)
	after, err := Rank(grown, now, p)
	if err != nil {
		t.Fatal(err)
	}
	bIdx, _ := net.Lookup(targetID)
	aIdx, _ := grown.Lookup(targetID)
	if after.Scores[aIdx] <= before.Scores[bIdx] {
		t.Errorf("recent citation did not raise ATT-ONLY score: %v vs %v",
			after.Scores[aIdx], before.Scores[bIdx])
	}
}

// TestMetamorphicOldCitationOutsideWindowIgnored: a citation from a paper
// published before the attention window must not change the attention
// vector of papers other than through normalization — i.e. the window
// count of the target stays the same.
func TestMetamorphicOldCitationOutsideWindow(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 8; i++ {
		if _, err := b.AddPaper("p"+strconv.Itoa(i), 1990+i, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	b.AddEdge("p7", "p6") // recent citation (1997)
	b.AddEdge("p3", "p0") // ancient citation (1993)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	att := AttentionVector(net, 1997, 2) // window = 1996–1997
	p6, _ := net.Lookup("p6")
	p0, _ := net.Lookup("p0")
	if att[p6] != 1 {
		t.Errorf("A(p6) = %v, want 1 (only window citation)", att[p6])
	}
	if att[p0] != 0 {
		t.Errorf("A(p0) = %v, want 0 (citation outside window)", att[p0])
	}
}

// TestMetamorphicYoungerPaperHigherRecency: for any pair of papers, the
// younger one never has a lower recency score (w < 0 strictly decays).
func TestMetamorphicRecencyMonotoneInAge(t *testing.T) {
	f := func(seed int64) bool {
		net := randomNet(t, seed, 30)
		rec := RecencyVector(net, net.MaxYear(), -0.3)
		for i := int32(0); int(i) < net.N(); i++ {
			for j := int32(0); int(j) < net.N(); j++ {
				if net.Year(i) > net.Year(j) && rec[i] < rec[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMetamorphicScaleInvariance: AttRank depends on the network shape,
// not the paper IDs — relabeling every paper must permute scores
// accordingly.
func TestMetamorphicRelabelInvariance(t *testing.T) {
	net := randomNet(t, 13, 50)
	p := Params{Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.2}
	orig, err := Rank(net, net.MaxYear(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with prefixed IDs in reversed insertion order.
	b := graph.NewBuilder()
	for i := net.N() - 1; i >= 0; i-- {
		pp := net.Paper(int32(i))
		if _, err := b.AddPaper("x-"+pp.ID, pp.Year, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); int(i) < net.N(); i++ {
		id := "x-" + net.Paper(i).ID
		net.References(i, func(ref int32) {
			b.AddEdge(id, "x-"+net.Paper(ref).ID)
		})
	}
	relabeled, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rank(relabeled, relabeled.MaxYear(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); int(i) < net.N(); i++ {
		j, ok := relabeled.Lookup("x-" + net.Paper(i).ID)
		if !ok {
			t.Fatal("relabeled paper missing")
		}
		if diff := res.Scores[j] - orig.Scores[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("relabeling changed score of %s: %v vs %v",
				net.Paper(i).ID, res.Scores[j], orig.Scores[i])
		}
	}
}
