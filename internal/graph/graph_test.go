package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// buildTiny constructs a 5-paper network:
//
//	p0 (1990)  p1 (1992)  p2 (1995)  p3 (1998)  p4 (1998)
//	p1→p0, p2→p0, p2→p1, p3→p2, p4→p2, p4→p0
func buildTiny(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	add := func(id string, year int, authors []string, venue string) {
		t.Helper()
		if _, err := b.AddPaper(id, year, authors, venue); err != nil {
			t.Fatalf("AddPaper(%s): %v", id, err)
		}
	}
	add("p0", 1990, []string{"alice"}, "VLDB")
	add("p1", 1992, []string{"alice", "bob"}, "ICDE")
	add("p2", 1995, []string{"carol"}, "VLDB")
	add("p3", 1998, []string{"bob"}, "")
	add("p4", 1998, []string{"dave", "alice"}, "ICDE")
	for _, e := range [][2]string{{"p1", "p0"}, {"p2", "p0"}, {"p2", "p1"}, {"p3", "p2"}, {"p4", "p2"}, {"p4", "p0"}} {
		b.AddEdge(e[0], e[1])
	}
	n, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return n
}

func TestNetworkBasics(t *testing.T) {
	n := buildTiny(t)
	if n.N() != 5 || n.Edges() != 6 {
		t.Fatalf("N=%d edges=%d, want 5, 6", n.N(), n.Edges())
	}
	if n.MinYear() != 1990 || n.MaxYear() != 1998 {
		t.Errorf("years %d..%d, want 1990..1998", n.MinYear(), n.MaxYear())
	}
	p0, ok := n.Lookup("p0")
	if !ok {
		t.Fatal("Lookup(p0) failed")
	}
	if n.InDegree(p0) != 3 {
		t.Errorf("InDegree(p0) = %d, want 3", n.InDegree(p0))
	}
	if n.OutDegree(p0) != 0 {
		t.Errorf("OutDegree(p0) = %d, want 0", n.OutDegree(p0))
	}
	p4, _ := n.Lookup("p4")
	if n.OutDegree(p4) != 2 {
		t.Errorf("OutDegree(p4) = %d, want 2", n.OutDegree(p4))
	}
	if _, ok := n.Lookup("nope"); ok {
		t.Error("Lookup(nope) should fail")
	}
}

func TestAuthorsAndVenues(t *testing.T) {
	n := buildTiny(t)
	if n.NumAuthors() != 4 {
		t.Errorf("NumAuthors = %d, want 4", n.NumAuthors())
	}
	if n.NumVenues() != 2 {
		t.Errorf("NumVenues = %d, want 2", n.NumVenues())
	}
	p1, _ := n.Lookup("p1")
	p := n.Paper(p1)
	if len(p.Authors) != 2 || n.AuthorName(p.Authors[0]) != "alice" || n.AuthorName(p.Authors[1]) != "bob" {
		t.Errorf("p1 authors wrong: %v", p.Authors)
	}
	if n.VenueName(p.Venue) != "ICDE" {
		t.Errorf("p1 venue = %q, want ICDE", n.VenueName(p.Venue))
	}
	p3, _ := n.Lookup("p3")
	if n.Paper(p3).Venue != NoVenue {
		t.Error("p3 should have no venue")
	}
	if n.VenueName(NoVenue) != "" {
		t.Error("VenueName(NoVenue) should be empty")
	}
	if n.AuthorName(99) != "" {
		t.Error("AuthorName out of range should be empty")
	}
}

func TestCitationsInWindow(t *testing.T) {
	n := buildTiny(t)
	p0, _ := n.Lookup("p0")
	// p0 is cited by p1 (1992), p2 (1995), p4 (1998).
	cases := []struct {
		from, to, want int
	}{
		{1990, 1998, 3},
		{1993, 1998, 2},
		{1996, 1998, 1},
		{1999, 2005, 0},
		{1992, 1992, 1},
	}
	for _, c := range cases {
		if got := n.CitationsIn(p0, c.from, c.to); got != c.want {
			t.Errorf("CitationsIn(p0, %d, %d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

// TestWindowCitationsMatchesCitationsIn: the one-pass counts equal
// CitationsIn for every paper of a random corpus, for windows inside,
// straddling and outside [MinYear, MaxYear].
func TestWindowCitationsMatchesCitationsIn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder()
	const papers = 400
	for i := 0; i < papers; i++ {
		if _, err := b.AddPaper(fmt.Sprintf("w%d", i), 2000+rng.Intn(16), nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 3000; e++ {
		if a, c := rng.Intn(papers), rng.Intn(papers); a != c {
			b.AddEdge(fmt.Sprintf("w%d", a), fmt.Sprintf("w%d", c))
		}
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := n.MinYear(), n.MaxYear()
	for _, w := range [][2]int{
		{lo, hi}, {lo + 3, lo + 5}, {hi - 2, hi}, {hi, hi}, // inside
		{lo - 4, lo + 1}, {hi - 1, hi + 6}, {lo - 1, hi + 1}, // straddling
		{lo - 9, lo - 1}, {hi + 1, hi + 3}, // outside
	} {
		got := n.WindowCitations(w[0], w[1])
		if len(got) != n.N() {
			t.Fatalf("window %v: %d counts for %d papers", w, len(got), n.N())
		}
		for i := int32(0); int(i) < n.N(); i++ {
			if want := n.CitationsIn(i, w[0], w[1]); int(got[i]) != want {
				t.Fatalf("window %v, paper %d: %d citations, CitationsIn says %d", w, i, got[i], want)
			}
		}
	}
}

func TestYearlyCitations(t *testing.T) {
	n := buildTiny(t)
	p2, _ := n.Lookup("p2")
	y := n.YearlyCitations(p2)
	if y[1998] != 2 || len(y) != 1 {
		t.Errorf("YearlyCitations(p2) = %v, want map[1998:2]", y)
	}
}

func TestUntilSnapshot(t *testing.T) {
	n := buildTiny(t)
	sub, keep := n.Until(1995)
	if sub.N() != 3 {
		t.Fatalf("Until(1995).N = %d, want 3", sub.N())
	}
	if len(keep) != 3 {
		t.Fatalf("keep = %v", keep)
	}
	// Edges among {p0,p1,p2}: p1→p0, p2→p0, p2→p1.
	if sub.Edges() != 3 {
		t.Errorf("sub edges = %d, want 3", sub.Edges())
	}
	sp0, ok := sub.Lookup("p0")
	if !ok {
		t.Fatal("p0 missing from snapshot")
	}
	if sub.InDegree(sp0) != 2 {
		t.Errorf("snapshot InDegree(p0) = %d, want 2", sub.InDegree(sp0))
	}
	if _, ok := sub.Lookup("p4"); ok {
		t.Error("p4 should not be in the 1995 snapshot")
	}
	// Metadata survives.
	if sub.VenueName(sub.Paper(sp0).Venue) != "VLDB" {
		t.Error("snapshot lost venue metadata")
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("snapshot invalid: %v", err)
	}
}

func TestUntilEmptyAndFull(t *testing.T) {
	n := buildTiny(t)
	empty, _ := n.Until(1980)
	if empty.N() != 0 {
		t.Errorf("Until(1980).N = %d, want 0", empty.N())
	}
	full, _ := n.Until(3000)
	if full.N() != n.N() || full.Edges() != n.Edges() {
		t.Errorf("Until(3000) = %d/%d, want %d/%d", full.N(), full.Edges(), n.N(), n.Edges())
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if _, err := b.AddPaper("", 2000, nil, ""); err == nil {
		t.Error("empty ID should fail")
	}
	if _, err := b.AddPaper("x", 2000, nil, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddPaper("x", 2001, nil, ""); err == nil {
		t.Error("duplicate ID should fail")
	}

	b2 := NewBuilder()
	b2.AddPaper("a", 2000, nil, "")
	b2.AddEdge("a", "missing")
	if _, err := b2.Build(); err == nil {
		t.Error("unresolved edge should fail")
	}

	b3 := NewBuilder()
	b3.AddPaper("a", 2000, nil, "")
	b3.AddEdge("a", "a")
	if _, err := b3.Build(); err == nil {
		t.Error("self-citation should fail")
	}
}

func TestBuilderDeduplicatesEdges(t *testing.T) {
	b := NewBuilder()
	b.AddPaper("a", 2000, nil, "")
	b.AddPaper("c", 1999, nil, "")
	b.AddEdge("a", "c")
	b.AddEdge("a", "c")
	b.AddEdge("a", "c")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n.Edges() != 1 {
		t.Errorf("Edges = %d, want 1 after dedup", n.Edges())
	}
}

func TestBuilderForwardReferences(t *testing.T) {
	// Edge added before the cited paper exists.
	b := NewBuilder()
	b.AddPaper("new", 2005, nil, "")
	b.AddEdge("new", "old")
	b.AddPaper("old", 1999, nil, "")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	old, _ := n.Lookup("old")
	if n.InDegree(old) != 1 {
		t.Errorf("InDegree(old) = %d, want 1", n.InDegree(old))
	}
}

func TestStochasticMatrixFromNetwork(t *testing.T) {
	n := buildTiny(t)
	s, err := n.StochasticMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 5 {
		t.Fatalf("S dimension %d, want 5", s.N())
	}
	p0, _ := n.Lookup("p0")
	if !s.Dangling(int(p0)) {
		t.Error("p0 has no references, should be dangling")
	}
	p2, _ := n.Lookup("p2")
	p1, _ := n.Lookup("p1")
	if got := s.At(int(p1), int(p2)); got != 0.5 {
		t.Errorf("S[p1,p2] = %v, want 0.5 (p2 cites 2 papers)", got)
	}
}

func TestAgeWeightedMatrix(t *testing.T) {
	n := buildTiny(t)
	m, err := n.AgeWeightedMatrix(1998, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := n.Lookup("p0")
	p1, _ := n.Lookup("p1")
	p4, _ := n.Lookup("p4")
	// p1 published 1992 → age 6 → weight 0.5^6.
	if got, want := m.At(int(p0), int(p1)), math.Pow(0.5, 6); math.Abs(got-want) > 1e-15 {
		t.Errorf("weight(p1→p0) = %v, want %v", got, want)
	}
	// p4 published 1998 → age 0 → weight 1.
	if got := m.At(int(p0), int(p4)); got != 1 {
		t.Errorf("weight(p4→p0) = %v, want 1", got)
	}
	if _, err := n.AgeWeightedMatrix(1998, 0); err == nil {
		t.Error("gamma=0 should fail")
	}
	if _, err := n.AgeWeightedMatrix(1998, 1.5); err == nil {
		t.Error("gamma>1 should fail")
	}
}

func TestCitationAgeDistribution(t *testing.T) {
	n := buildTiny(t)
	// Ages: p1→p0:2, p2→p0:5, p2→p1:3, p3→p2:3, p4→p2:3, p4→p0:8.
	dist := n.CitationAgeDistribution(10)
	total := 0.0
	for _, v := range dist {
		total += v
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("distribution sums to %v, want 1 (all ages ≤ 10)", total)
	}
	if math.Abs(dist[3]-0.5) > 1e-12 {
		t.Errorf("dist[3] = %v, want 0.5 (3 of 6 citations)", dist[3])
	}
	if dist[0] != 0 {
		t.Errorf("dist[0] = %v, want 0", dist[0])
	}
}

func TestComputeStats(t *testing.T) {
	n := buildTiny(t)
	s := n.ComputeStats()
	if s.Papers != 5 || s.Edges != 6 {
		t.Errorf("stats papers/edges = %d/%d", s.Papers, s.Edges)
	}
	if s.Dangling != 1 { // only p0 has no references
		t.Errorf("Dangling = %d, want 1", s.Dangling)
	}
	if s.Uncited != 2 { // p3, p4
		t.Errorf("Uncited = %d, want 2", s.Uncited)
	}
	if s.MaxInDeg != 3 {
		t.Errorf("MaxInDeg = %d, want 3", s.MaxInDeg)
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

func TestTopByInDegree(t *testing.T) {
	n := buildTiny(t)
	top := n.TopByInDegree(2)
	p0, _ := n.Lookup("p0")
	p2, _ := n.Lookup("p2")
	if len(top) != 2 || top[0] != p0 || top[1] != p2 {
		t.Errorf("TopByInDegree = %v, want [%d %d]", top, p0, p2)
	}
	all := n.TopByInDegree(100)
	if len(all) != 5 {
		t.Errorf("TopByInDegree(100) len = %d, want 5", len(all))
	}
}

func TestPapersByTime(t *testing.T) {
	n := buildTiny(t)
	order := n.PapersByTime()
	prev := -1 << 30
	for _, i := range order {
		if y := n.Year(i); y < prev {
			t.Fatalf("order not sorted by year: %v", order)
		} else {
			prev = y
		}
	}
}

func TestBipartiteEdges(t *testing.T) {
	n := buildTiny(t)
	pa := 0
	n.PaperAuthorEdges(func(p, a int32) { pa++ })
	if pa != 7 { // 1+2+1+1+2 author slots
		t.Errorf("paper-author edges = %d, want 7", pa)
	}
	pv := 0
	n.PaperVenueEdges(func(p, v int32) { pv++ })
	if pv != 4 { // p3 has no venue
		t.Errorf("paper-venue edges = %d, want 4", pv)
	}
}

func TestHasEdge(t *testing.T) {
	n := buildTiny(t)
	lookup := func(id string) int32 {
		t.Helper()
		i, ok := n.Lookup(id)
		if !ok {
			t.Fatalf("Lookup(%s) failed", id)
		}
		return i
	}
	for _, e := range [][2]string{{"p1", "p0"}, {"p2", "p0"}, {"p2", "p1"}, {"p3", "p2"}, {"p4", "p2"}, {"p4", "p0"}} {
		if !n.HasEdge(lookup(e[0]), lookup(e[1])) {
			t.Errorf("HasEdge(%s, %s) = false, want true", e[0], e[1])
		}
	}
	for _, e := range [][2]string{{"p0", "p1"}, {"p1", "p2"}, {"p3", "p0"}, {"p0", "p0"}} {
		if n.HasEdge(lookup(e[0]), lookup(e[1])) {
			t.Errorf("HasEdge(%s, %s) = true, want false", e[0], e[1])
		}
	}
}

func TestNewBuilderFromRoundTrip(t *testing.T) {
	n := buildTiny(t)
	// Rebuilding with no additions must reproduce the network exactly.
	rt, err := NewBuilderFrom(n).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := rt.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if rt.N() != n.N() || rt.Edges() != n.Edges() {
		t.Fatalf("round trip: N=%d edges=%d, want %d, %d", rt.N(), rt.Edges(), n.N(), n.Edges())
	}
	for i := int32(0); int(i) < n.N(); i++ {
		if rt.Paper(i).ID != n.Paper(i).ID {
			t.Fatalf("node %d: ID %q, want %q (indices must be preserved)", i, rt.Paper(i).ID, n.Paper(i).ID)
		}
	}
	if rt.NumAuthors() != n.NumAuthors() || rt.NumVenues() != n.NumVenues() {
		t.Errorf("tables: %d authors, %d venues, want %d, %d",
			rt.NumAuthors(), rt.NumVenues(), n.NumAuthors(), n.NumVenues())
	}
}

func TestNewBuilderFromExtend(t *testing.T) {
	n := buildTiny(t)
	b := NewBuilderFrom(n)
	// A new paper reusing one base author ("alice") and adding a new one;
	// base tables must not grow duplicates, and base papers keep indices.
	idx, err := b.AddPaper("p5", 1999, []string{"alice", "erin"}, "VLDB")
	if err != nil {
		t.Fatalf("AddPaper: %v", err)
	}
	if int(idx) != n.N() {
		t.Fatalf("new paper index = %d, want %d", idx, n.N())
	}
	b.AddEdge("p5", "p4")
	b.AddEdge("p5", "p0")
	grown, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := grown.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if grown.N() != n.N()+1 || grown.Edges() != n.Edges()+2 {
		t.Fatalf("grown: N=%d edges=%d", grown.N(), grown.Edges())
	}
	if grown.NumAuthors() != n.NumAuthors()+1 {
		t.Errorf("authors = %d, want %d (alice reused, erin added)", grown.NumAuthors(), n.NumAuthors()+1)
	}
	if grown.NumVenues() != n.NumVenues() {
		t.Errorf("venues = %d, want %d (VLDB reused)", grown.NumVenues(), n.NumVenues())
	}
	// Duplicate base ID still rejected.
	if _, err := b.AddPaper("p0", 2000, nil, ""); err == nil {
		t.Error("duplicate base ID accepted")
	}
	// The base network is untouched.
	if n.N() != 5 || n.Edges() != 6 || n.NumAuthors() != 4 {
		t.Errorf("base mutated: N=%d edges=%d authors=%d", n.N(), n.Edges(), n.NumAuthors())
	}
	i5, _ := grown.Lookup("p5")
	i4, _ := grown.Lookup("p4")
	if !grown.HasEdge(i5, i4) {
		t.Error("new edge p5→p4 missing")
	}
}
