package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"attrank/internal/graph"
)

func trackerParams() Params {
	return Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2}
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(Params{Alpha: 1, Beta: 1, Gamma: 1}); err == nil {
		t.Error("invalid params accepted")
	}
	p := trackerParams()
	p.Start = []float64{1}
	if _, err := NewTracker(p); err == nil {
		t.Error("preset Start accepted")
	}
	tr, err := NewTracker(trackerParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.last) != 0 {
		t.Errorf("fresh tracker holds %d scores", len(tr.last))
	}
}

func TestTrackerMatchesColdRank(t *testing.T) {
	n1 := randomNet(t, 7, 150)
	n2 := randomNet(t, 7, 220) // same prefix IDs p0..p149 plus 70 new papers

	tr, err := NewTracker(trackerParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Update(n1, n1.MaxYear()); err != nil {
		t.Fatal(err)
	}
	warm, err := tr.Update(n2, n2.MaxYear())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Rank(n2, n2.MaxYear(), trackerParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Scores {
		if math.Abs(cold.Scores[i]-warm.Scores[i]) > 1e-9 {
			t.Fatalf("tracker diverged from cold rank at %d: %v vs %v",
				i, warm.Scores[i], cold.Scores[i])
		}
	}
	if len(tr.last) != n2.N() {
		t.Errorf("tracker holds %d scores, want %d", len(tr.last), n2.N())
	}
}

func TestTrackerConvergesFasterOnRepeat(t *testing.T) {
	n := randomNet(t, 5, 400)
	tr, err := NewTracker(trackerParams())
	if err != nil {
		t.Fatal(err)
	}
	first, err := tr.Update(n, n.MaxYear())
	if err != nil {
		t.Fatal(err)
	}
	second, err := tr.Update(n, n.MaxYear())
	if err != nil {
		t.Fatal(err)
	}
	if second.Iterations >= first.Iterations {
		t.Errorf("repeat update took %d iterations, first took %d",
			second.Iterations, first.Iterations)
	}
}

func TestTrackerHandlesDisjointNetworks(t *testing.T) {
	tr, err := NewTracker(trackerParams())
	if err != nil {
		t.Fatal(err)
	}
	n1 := randomNet(t, 3, 50)
	if _, err := tr.Update(n1, n1.MaxYear()); err != nil {
		t.Fatal(err)
	}
	// A network with entirely different IDs: warm start degrades to the
	// carried-over mean but must still converge to the cold fixed point.
	b := newDisjointNet(t, 60)
	warm, err := tr.Update(b, b.MaxYear())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Rank(b, b.MaxYear(), trackerParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Scores {
		if math.Abs(cold.Scores[i]-warm.Scores[i]) > 1e-9 {
			t.Fatalf("disjoint update diverged at %d", i)
		}
	}
}

func newDisjointNet(t *testing.T, size int) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < size; i++ {
		if _, err := b.AddPaper("q"+paperID(i), 2000+i/5, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i < size; i++ {
		b.AddEdgeByIndex(int32(i), int32(i-2))
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// mapTracker is the reference Tracker: it carries the previous scores
// in a map keyed by paper ID, rebuilt on every update.
type mapTracker struct {
	params Params
	last   map[string]float64
}

func (t *mapTracker) seed(net *graph.Network, scores []float64) {
	t.last = make(map[string]float64, len(scores))
	for i := int32(0); int(i) < net.N(); i++ {
		t.last[net.Paper(i).ID] = scores[i]
	}
}

func (t *mapTracker) update(net *graph.Network, now int) (*Result, error) {
	p := t.params
	if len(t.last) > 0 && net.N() > 0 {
		start := make([]float64, net.N())
		carried, hits := 0.0, 0
		for i := int32(0); int(i) < net.N(); i++ {
			if v, ok := t.last[net.Paper(i).ID]; ok {
				start[i] = v
				carried += v
				hits++
			}
		}
		fill := 1.0 / float64(net.N())
		if hits > 0 {
			fill = carried / float64(hits)
		}
		for i := range start {
			if start[i] == 0 {
				start[i] = fill
			}
		}
		p.Start = start
	}
	res, err := Rank(net, now, p)
	if err != nil {
		return nil, err
	}
	t.seed(net, res.Scores)
	return res, nil
}

// growNet splices the given number of new papers onto base, with about
// twice as many citations, a third of them from old papers.
func growNet(t *testing.T, rng *rand.Rand, base *graph.Network, gen, papers int) *graph.Network {
	t.Helper()
	b := graph.NewBuilderFrom(base)
	year := base.MaxYear()
	for i := 0; i < papers; i++ {
		if _, err := b.AddPaper(fmt.Sprintf("g%d-%d", gen, i), year+rng.Intn(2), nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	n := int32(base.N() + papers)
	for k := 0; k < 2*papers; k++ {
		citing := int32(base.N()) + int32(rng.Intn(papers))
		if k%3 == 0 {
			citing = int32(rng.Intn(int(n)))
		}
		if cited := int32(rng.Intn(int(n))); cited != citing {
			b.AddEdgeByIndex(citing, cited)
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// permuteNet rebuilds net from scratch with its papers in a random
// order: the same papers and citations under other indices.
func permuteNet(t *testing.T, rng *rand.Rand, net *graph.Network) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	for _, i := range rng.Perm(net.N()) {
		p := net.Paper(int32(i))
		if _, err := b.AddPaper(p.ID, p.Year, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); int(i) < net.N(); i++ {
		net.References(i, func(ref int32) { b.AddEdge(net.Paper(i).ID, net.Paper(ref).ID) })
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTrackerMatchesMapReference: over a chain of updates on growing,
// permuted and shrunken networks, with a Seed mid-chain, the tracker
// that carries scores by index returns results == to the reference that
// matches IDs through a map. Mutating the slices the tracker was given
// or returned must not reach its next warm start.
func TestTrackerMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr, err := NewTracker(trackerParams())
	if err != nil {
		t.Fatal(err)
	}
	ref := &mapTracker{params: trackerParams()}

	net := randomNet(t, 11, 120)
	steps := []struct {
		name string
		next func(*graph.Network) *graph.Network
		seed bool
	}{
		{"first", func(n *graph.Network) *graph.Network { return n }, false},
		{"same network", func(n *graph.Network) *graph.Network { return n }, false},
		{"grown", func(n *graph.Network) *graph.Network { return growNet(t, rng, n, 1, 9) }, false},
		{"grown again", func(n *graph.Network) *graph.Network { return growNet(t, rng, n, 2, 1) }, false},
		{"permuted", func(n *graph.Network) *graph.Network { return permuteNet(t, rng, n) }, false},
		{"grown after permutation", func(n *graph.Network) *graph.Network { return growNet(t, rng, n, 3, 6) }, false},
		{"papers removed", func(n *graph.Network) *graph.Network {
			sub, _ := n.Filter(func(i int32, _ graph.Paper) bool { return rng.Intn(5) != 0 })
			return sub
		}, false},
		{"seeded", func(n *graph.Network) *graph.Network { return n }, true},
		{"grown after seed", func(n *graph.Network) *graph.Network { return growNet(t, rng, n, 4, 5) }, false},
		{"disjoint", func(*graph.Network) *graph.Network { return newDisjointNet(t, 40) }, false},
		{"grown after disjoint", func(n *graph.Network) *graph.Network { return growNet(t, rng, n, 5, 4) }, false},
	}
	for _, step := range steps {
		net = step.next(net)
		if step.seed {
			// A seed from scores not produced by either tracker; the
			// caller's slice is scribbled on once the tracker holds it.
			scores := make([]float64, net.N())
			for i := range scores {
				scores[i] = rng.Float64() / float64(net.N())
			}
			ref.seed(net, scores)
			if err := tr.Seed(net, scores); err != nil {
				t.Fatal(err)
			}
			for i := range scores {
				scores[i] = -1
			}
			continue
		}
		got, err := tr.Update(net, net.MaxYear())
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		want, err := ref.update(net, net.MaxYear())
		if err != nil {
			t.Fatalf("%s: reference: %v", step.name, err)
		}
		if len(got.Scores) != len(want.Scores) || len(got.Residuals) != len(want.Residuals) {
			t.Fatalf("%s: %d scores, %d residuals; want %d, %d", step.name,
				len(got.Scores), len(got.Residuals), len(want.Scores), len(want.Residuals))
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Fatalf("%s: %d iterations, converged %v; want %d, %v", step.name,
				got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
		for i := range want.Scores {
			if got.Scores[i] != want.Scores[i] {
				t.Fatalf("%s: score %d = %v, want %v", step.name, i, got.Scores[i], want.Scores[i])
			}
		}
		for i := range want.Residuals {
			if got.Residuals[i] != want.Residuals[i] {
				t.Fatalf("%s: residual %d = %v, want %v", step.name, i, got.Residuals[i], want.Residuals[i])
			}
		}
		if len(tr.last) != len(ref.last) {
			t.Fatalf("%s: tracker holds %d scores, want %d", step.name, len(tr.last), len(ref.last))
		}
		// The published scores belong to the caller.
		for i := range got.Scores {
			got.Scores[i] = -1
		}
	}
}
