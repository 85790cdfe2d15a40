package baselines

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"attrank/internal/graph"
	"attrank/internal/rank"
)

// metaNet builds a network with author and venue metadata so every method
// can run: six papers, two venues, four authors.
func metaNet(t testing.TB) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	add := func(id string, year int, authors []string, venue string) {
		t.Helper()
		if _, err := b.AddPaper(id, year, authors, venue); err != nil {
			t.Fatal(err)
		}
	}
	add("p0", 1990, []string{"alice"}, "VLDB")
	add("p1", 1992, []string{"alice", "bob"}, "ICDE")
	add("p2", 1995, []string{"carol"}, "VLDB")
	add("p3", 1998, []string{"bob"}, "ICDE")
	add("p4", 1998, []string{"dave", "alice"}, "ICDE")
	add("p5", 1997, []string{"carol"}, "VLDB")
	for _, e := range [][2]string{
		{"p1", "p0"}, {"p2", "p0"}, {"p2", "p1"},
		{"p3", "p2"}, {"p4", "p2"}, {"p4", "p0"}, {"p5", "p2"},
	} {
		b.AddEdge(e[0], e[1])
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randomMetaNet(t testing.TB, seed int64, size int) *graph.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < size; i++ {
		authors := []string{"a" + strconv.Itoa(rng.Intn(size/3+1))}
		if rng.Intn(2) == 0 {
			authors = append(authors, "a"+strconv.Itoa(rng.Intn(size/3+1)))
		}
		venue := "v" + strconv.Itoa(rng.Intn(8))
		if _, err := b.AddPaper("p"+strconv.Itoa(i), 1990+i/4, authors, venue); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < size; i++ {
		for r := 0; r < rng.Intn(4); r++ {
			b.AddEdgeByIndex(int32(i), int32(rng.Intn(i)))
		}
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func checkProbabilityVector(t *testing.T, name string, scores []float64, n int) {
	t.Helper()
	if len(scores) != n {
		t.Fatalf("%s: %d scores for %d papers", name, len(scores), n)
	}
	sum := 0.0
	for i, v := range scores {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: score[%d] = %v", name, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("%s: scores sum to %v, want 1", name, sum)
	}
}

func TestAllMethodsProduceProbabilityVectors(t *testing.T) {
	net := metaNet(t)
	now := net.MaxYear()
	methods := []rank.Method{
		PageRank{Alpha: 0.5},
		CitationCount{},
		CiteRank{Alpha: 0.5, TauDir: 2.6},
		FutureRank{Alpha: 0.4, Beta: 0.1, Gamma: 0.5, Rho: -0.62},
		RAM{Gamma: 0.6},
		ECM{Alpha: 0.1, Gamma: 0.3},
		WSDM{Alpha: 1.7, Beta: 3, Iters: 4},
	}
	for _, m := range methods {
		scores, err := m.Scores(net, now)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		checkProbabilityVector(t, m.Name(), scores, net.N())
	}
}

// TestAllMethodsRankWithDefaults: each of the ten baselines, built
// with its default parameters, names itself and scores every paper.
func TestAllMethodsRankWithDefaults(t *testing.T) {
	net := metaNet(t)
	for _, m := range []rank.Method{
		PageRank{Alpha: 0.5},
		CitationCount{},
		CiteRank{Alpha: 0.5, TauDir: 2.6},
		FutureRank{Alpha: 0.4, Beta: 0.1, Gamma: 0.5, Rho: -0.62},
		RAM{Gamma: 0.6},
		ECM{Alpha: 0.3, Gamma: 0.3},
		WSDM{Alpha: 1.7, Beta: 3, Iters: 4},
		HITS{},
		Katz{Alpha: 0.3},
		TimeAwarePageRank{Alpha: 0.5, Tau: 2.6},
	} {
		if m.Name() == "" {
			t.Errorf("%T: empty Name()", m)
		}
		scores, err := m.Scores(net, net.MaxYear())
		if err != nil {
			t.Fatalf("%s.Scores: %v", m.Name(), err)
		}
		if len(scores) != net.N() {
			t.Errorf("%s: %d scores for %d papers", m.Name(), len(scores), net.N())
		}
	}
}

func TestAllMethodsRejectEmptyNetwork(t *testing.T) {
	empty, err := graph.NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	methods := []rank.Method{
		PageRank{Alpha: 0.5},
		CitationCount{},
		CiteRank{Alpha: 0.5, TauDir: 2.6},
		FutureRank{Alpha: 0.4, Beta: 0, Gamma: 0.5, Rho: -0.62},
		RAM{Gamma: 0.6},
		ECM{Alpha: 0.1, Gamma: 0.3},
	}
	for _, m := range methods {
		if _, err := m.Scores(empty, 2000); !errors.Is(err, ErrEmptyNetwork) {
			t.Errorf("%s: err = %v, want ErrEmptyNetwork", m.Name(), err)
		}
	}
}

func TestPageRankKnownValues(t *testing.T) {
	// Two papers, p1 cites p0. With α damping:
	// PR(p0) = α·(PR(p1)·1 + PR(p0)·1/2) + (1−α)/2  [p0 dangling spreads 1/2 each]
	// Solve the 2x2 system for α = 0.5 → PR(p0) = 5/8? Verify numerically
	// against an independent dense computation instead of hand algebra.
	b := graph.NewBuilder()
	b.AddPaper("p0", 2000, nil, "")
	b.AddPaper("p1", 2001, nil, "")
	b.AddEdge("p1", "p0")
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	scores, err := PageRank{Alpha: 0.5}.Scores(net, 2001)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := net.Lookup("p0")
	p1, _ := net.Lookup("p1")
	// Dense fixed point: x0 = 0.5(x1 + x0/2) + 0.25; x1 = 0.5(x0/2) + 0.25.
	// ⇒ x0 = 0.6, x1 = 0.4.
	if math.Abs(scores[p0]-0.6) > 1e-9 || math.Abs(scores[p1]-0.4) > 1e-9 {
		t.Errorf("PR = (%v, %v), want (0.6, 0.4)", scores[p0], scores[p1])
	}
}

func TestPageRankValidation(t *testing.T) {
	net := metaNet(t)
	if _, err := (PageRank{Alpha: 1.0}).Scores(net, 1998); err == nil {
		t.Error("alpha=1 should fail")
	}
	if _, err := (PageRank{Alpha: -0.1}).Scores(net, 1998); err == nil {
		t.Error("negative alpha should fail")
	}
}

func TestCitationCountOrder(t *testing.T) {
	net := metaNet(t)
	scores, err := CitationCount{}.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := net.Lookup("p2")
	p3, _ := net.Lookup("p3")
	if scores[p2] <= scores[p3] {
		t.Errorf("CC should rank cited p2 above uncited p3")
	}
	// p2 has 3 of 7 citations.
	if math.Abs(scores[p2]-3.0/7) > 1e-12 {
		t.Errorf("CC(p2) = %v, want 3/7", scores[p2])
	}
}

func TestCiteRankFavorsRecentEntry(t *testing.T) {
	net := metaNet(t)
	// Small τdir → entry mass concentrated on 1998 papers; p2 (cited by
	// all the recent papers) should gather the most traffic among cited
	// papers, beating the old p0 on incoming traffic despite equal CC.
	scores, err := CiteRank{Alpha: 0.5, TauDir: 1}.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := net.Lookup("p2")
	p0, _ := net.Lookup("p0")
	if scores[p2] <= scores[p0] {
		t.Errorf("CiteRank with small τ should favor recently-cited p2: %v vs %v", scores[p2], scores[p0])
	}
	checkProbabilityVector(t, "CR", scores, net.N())
}

func TestCiteRankLargeTauApproachesUniformEntry(t *testing.T) {
	net := metaNet(t)
	// Huge τdir → ρ ≈ uniform; traffic dominated by citation structure.
	scores, err := CiteRank{Alpha: 0.5, TauDir: 1e6}.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := net.Lookup("p0")
	p3, _ := net.Lookup("p3")
	if scores[p0] <= scores[p3] {
		t.Errorf("with uniform entry, heavily cited p0 should beat uncited p3")
	}
}

func TestCiteRankValidation(t *testing.T) {
	net := metaNet(t)
	for _, c := range []CiteRank{
		{Alpha: 0, TauDir: 1},
		{Alpha: 1, TauDir: 1},
		{Alpha: 0.5, TauDir: 0},
		{Alpha: 0.5, TauDir: -2},
	} {
		if _, err := c.Scores(net, 1998); err == nil {
			t.Errorf("invalid CiteRank %+v accepted", c)
		}
	}
}

func TestCiteRankIterations(t *testing.T) {
	net := randomMetaNet(t, 3, 150)
	iters, err := CiteRank{Alpha: 0.5, TauDir: 2}.Iterations(net, net.MaxYear())
	if err != nil {
		t.Fatal(err)
	}
	if iters < 2 || iters > DefaultMaxIter {
		t.Errorf("iterations = %d, expected a moderate count", iters)
	}
}

func TestFutureRankAuthorsMatter(t *testing.T) {
	net := metaNet(t)
	with, err := FutureRank{Alpha: 0.3, Beta: 0.3, Gamma: 0.3, Rho: -0.62}.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	without, err := FutureRank{Alpha: 0.3, Beta: 0, Gamma: 0.6, Rho: -0.62}.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for i := range with {
		diff += math.Abs(with[i] - without[i])
	}
	if diff < 1e-9 {
		t.Error("author reinforcement had no effect on scores")
	}
}

func TestFutureRankRequiresAuthors(t *testing.T) {
	b := graph.NewBuilder()
	b.AddPaper("x", 2000, nil, "")
	net, _ := b.Build()
	if _, err := (FutureRank{Alpha: 0.3, Beta: 0.3, Gamma: 0.3, Rho: -0.5}).Scores(net, 2000); err == nil {
		t.Error("β>0 without authors should fail")
	}
}

func TestFutureRankValidation(t *testing.T) {
	net := metaNet(t)
	for _, f := range []FutureRank{
		{Alpha: 0.5, Beta: 0.5, Gamma: 0.5, Rho: -0.5}, // sum > 1
		{Alpha: -0.1, Beta: 0.5, Gamma: 0.5, Rho: -0.5},
		{Alpha: 0.3, Beta: 0.3, Gamma: 0.3, Rho: 0.5}, // positive rho
	} {
		if _, err := f.Scores(net, 1998); err == nil {
			t.Errorf("invalid FutureRank %+v accepted", f)
		}
	}
}

func TestFutureRankIterations(t *testing.T) {
	net := metaNet(t)
	iters, err := FutureRank{Alpha: 0.5, Beta: 0.1, Gamma: 0.3, Rho: -0.62}.Iterations(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Errorf("iterations = %d", iters)
	}
}

func TestRAMWeightsRecentCitations(t *testing.T) {
	net := metaNet(t)
	// γ small → only recent citations count. p2's citations all come from
	// 1997–98 papers, p0's partly from 1992/1995.
	scores, err := RAM{Gamma: 0.3}.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := net.Lookup("p2")
	p0, _ := net.Lookup("p0")
	if scores[p2] <= scores[p0] {
		t.Errorf("RAM should favor recently-cited p2: %v vs %v", scores[p2], scores[p0])
	}
}

func TestRAMGammaOneIsCitationCount(t *testing.T) {
	net := metaNet(t)
	ram, err := RAM{Gamma: 1}.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := CitationCount{}.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ram {
		if math.Abs(ram[i]-cc[i]) > 1e-12 {
			t.Fatalf("RAM(γ=1) != CC at %d: %v vs %v", i, ram[i], cc[i])
		}
	}
}

func TestRAMValidation(t *testing.T) {
	net := metaNet(t)
	if _, err := (RAM{Gamma: 0}).Scores(net, 1998); err == nil {
		t.Error("gamma=0 should fail")
	}
	if _, err := (RAM{Gamma: 1.2}).Scores(net, 1998); err == nil {
		t.Error("gamma>1 should fail")
	}
}

func TestECMCreditsChains(t *testing.T) {
	// Chain c→b→a: ECM gives a credit from the 2-step chain, RAM does not.
	b := graph.NewBuilder()
	b.AddPaper("a", 1990, nil, "")
	b.AddPaper("b", 1995, nil, "")
	b.AddPaper("c", 1998, nil, "")
	b.AddPaper("d", 1998, nil, "") // isolated
	b.AddEdge("b", "a")
	b.AddEdge("c", "b")
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ecm, err := ECM{Alpha: 0.5, Gamma: 1}.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	ram, err := RAM{Gamma: 1}.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := net.Lookup("a")
	bIdx, _ := net.Lookup("b")
	// Under RAM, a and b both have one citation → equal scores. Under ECM,
	// a additionally receives α·(chain c→b→a) → strictly higher than b.
	if ram[a] != ram[bIdx] {
		t.Fatalf("RAM should tie a and b: %v vs %v", ram[a], ram[bIdx])
	}
	if ecm[a] <= ecm[bIdx] {
		t.Errorf("ECM should credit the chain: a=%v b=%v", ecm[a], ecm[bIdx])
	}
}

func TestECMValidation(t *testing.T) {
	net := metaNet(t)
	for _, e := range []ECM{
		{Alpha: 0, Gamma: 0.5},
		{Alpha: 1, Gamma: 0.5},
		{Alpha: 0.5, Gamma: 0},
		{Alpha: 0.5, Gamma: 1.5},
	} {
		if _, err := e.Scores(net, 1998); err == nil {
			t.Errorf("invalid ECM %+v accepted", e)
		}
	}
}

func TestWSDMRequiresMetadata(t *testing.T) {
	b := graph.NewBuilder()
	b.AddPaper("x", 2000, []string{"a"}, "")
	net, _ := b.Build()
	if _, err := (WSDM{Alpha: 1.7, Beta: 3, Iters: 4}).Scores(net, 2000); err == nil {
		t.Error("missing venues should fail")
	}

	b2 := graph.NewBuilder()
	b2.AddPaper("x", 2000, nil, "V")
	net2, _ := b2.Build()
	if _, err := (WSDM{Alpha: 1.7, Beta: 3, Iters: 4}).Scores(net2, 2000); err == nil {
		t.Error("missing authors should fail")
	}
}

func TestWSDMValidation(t *testing.T) {
	net := metaNet(t)
	if _, err := (WSDM{Alpha: 1.7, Beta: 3, Iters: 0}).Scores(net, 1998); err == nil {
		t.Error("iters=0 should fail")
	}
	if _, err := (WSDM{Alpha: math.NaN(), Beta: 3, Iters: 4}).Scores(net, 1998); err == nil {
		t.Error("NaN alpha should fail")
	}
}

func TestWSDMFavorsCitedPapers(t *testing.T) {
	net := metaNet(t)
	scores, err := WSDM{Alpha: 1.7, Beta: 3, Iters: 5}.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := net.Lookup("p2")
	p5, _ := net.Lookup("p5")
	if scores[p2] <= scores[p5] {
		t.Errorf("WSDM should rank heavily-cited p2 above p5: %v vs %v", scores[p2], scores[p5])
	}
}

// Property: every method yields a probability vector on random networks
// with metadata.
func TestMethodsProbabilityProperty(t *testing.T) {
	methods := []rank.Method{
		PageRank{Alpha: 0.5},
		CitationCount{},
		CiteRank{Alpha: 0.31, TauDir: 1.6},
		FutureRank{Alpha: 0.19, Beta: 0.02, Gamma: 0.79, Rho: -0.62},
		RAM{Gamma: 0.71},
		ECM{Alpha: 0.1, Gamma: 0.3},
		WSDM{Alpha: 1.7, Beta: 3, Iters: 4},
	}
	f := func(seed int64) bool {
		net := randomMetaNet(t, seed, 40+int(seed%11+11)%11)
		for _, m := range methods {
			scores, err := m.Scores(net, net.MaxYear())
			if err != nil {
				return false
			}
			sum := 0.0
			for _, v := range scores {
				if v < 0 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
