package graph

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestWeaklyConnectedComponents(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 6; i++ {
		if _, err := b.AddPaper("p"+strconv.Itoa(i), 1990+i, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	// Two components: {p0,p1,p2} and {p3,p4}; p5 isolated.
	b.AddEdge("p1", "p0")
	b.AddEdge("p2", "p1")
	b.AddEdge("p4", "p3")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	labels, count := n.WeaklyConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	same := func(a, b string) bool {
		ia, _ := n.Lookup(a)
		ib, _ := n.Lookup(b)
		return labels[ia] == labels[ib]
	}
	if !same("p0", "p2") || !same("p3", "p4") {
		t.Error("components joined incorrectly")
	}
	if same("p0", "p3") || same("p0", "p5") {
		t.Error("distinct components merged")
	}
	if got := n.LargestComponentSize(); got != 3 {
		t.Errorf("LargestComponentSize = %d, want 3", got)
	}
}

func TestComponentsEmptyNetwork(t *testing.T) {
	n, err := NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	_, count := n.WeaklyConnectedComponents()
	if count != 0 {
		t.Errorf("count = %d, want 0", count)
	}
	if n.LargestComponentSize() != 0 {
		t.Error("LargestComponentSize should be 0")
	}
	if n.GiniInDegree() != 0 {
		t.Error("Gini should be 0")
	}
	if n.LongestPathLength() != 0 {
		t.Error("LongestPathLength should be 0")
	}
}

func TestInDegreeHistogram(t *testing.T) {
	n := buildTiny(t)
	h := n.InDegreeHistogram()
	// In-degrees: p0:3, p1:1, p2:2, p3:0, p4:0.
	want := map[int]int{0: 2, 1: 1, 2: 1, 3: 1}
	for k, v := range want {
		if h[k] != v {
			t.Errorf("hist[%d] = %d, want %d (full: %v)", k, h[k], v, h)
		}
	}
}

func TestGiniInDegree(t *testing.T) {
	// Perfect equality: every paper cited exactly once (a ring is
	// impossible in a DAG; use two chains).
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddPaper("p"+strconv.Itoa(i), 1990+i, nil, "")
	}
	b.AddEdge("p1", "p0")
	b.AddEdge("p2", "p1")
	b.AddEdge("p3", "p2")
	// p3 uncited, p0..p2 cited once: degrees 1,1,1,0.
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := n.GiniInDegree()
	// Gini of (0,1,1,1): 2(1·0+2·1+3·1+4·1)/(4·3) − 5/4 = 18/12−1.25 = 0.25.
	if math.Abs(g-0.25) > 1e-12 {
		t.Errorf("Gini = %v, want 0.25", g)
	}

	// Maximal concentration: one paper absorbs all citations.
	b2 := NewBuilder()
	for i := 0; i < 5; i++ {
		b2.AddPaper("q"+strconv.Itoa(i), 1990+i, nil, "")
	}
	for i := 1; i < 5; i++ {
		b2.AddEdge("q"+strconv.Itoa(i), "q0")
	}
	n2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g2 := n2.GiniInDegree(); g2 <= g {
		t.Errorf("concentrated network should have higher Gini: %v vs %v", g2, g)
	}
}

func TestLongestPathLength(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		b.AddPaper("p"+strconv.Itoa(i), 1990+i, nil, "")
	}
	// Chain p4→p3→p2→p1→p0 plus shortcut p4→p0.
	for i := 1; i < 5; i++ {
		b.AddEdge("p"+strconv.Itoa(i), "p"+strconv.Itoa(i-1))
	}
	b.AddEdge("p4", "p0")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.LongestPathLength(); got != 4 {
		t.Errorf("LongestPathLength = %d, want 4", got)
	}
}

func TestLongestPathDeepChain(t *testing.T) {
	// A 20k-node chain must not overflow the stack (iterative DFS).
	const size = 20000
	b := NewBuilder()
	for i := 0; i < size; i++ {
		b.AddPaper("p"+strconv.Itoa(i), 1990, nil, "")
	}
	for i := 1; i < size; i++ {
		b.AddEdgeByIndex(int32(i), int32(i-1))
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.LongestPathLength(); got != size-1 {
		t.Errorf("LongestPathLength = %d, want %d", got, size-1)
	}
}

func TestFilterByVenue(t *testing.T) {
	n := buildTiny(t)
	sub, keep := n.Filter(func(_ int32, p Paper) bool {
		return n.VenueName(p.Venue) == "VLDB"
	})
	if sub.N() != 2 { // p0 and p2
		t.Fatalf("VLDB subnetwork has %d papers, want 2", sub.N())
	}
	// Only edge among {p0, p2}: p2→p0.
	if sub.Edges() != 1 {
		t.Errorf("edges = %d, want 1", sub.Edges())
	}
	if len(keep) != 2 {
		t.Errorf("keep = %v", keep)
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("filtered network invalid: %v", err)
	}
}

func TestFilterKeepNothing(t *testing.T) {
	n := buildTiny(t)
	sub, keep := n.Filter(func(int32, Paper) bool { return false })
	if sub.N() != 0 || len(keep) != 0 {
		t.Errorf("empty filter kept %d papers", sub.N())
	}
}

func dotString(t *testing.T, n *Network, maxNodes int) string {
	t.Helper()
	var sb strings.Builder
	if err := n.WriteDOT(&sb, maxNodes); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestWriteDOT(t *testing.T) {
	n := buildTiny(t)
	dot := dotString(t, n, 0)
	if !strings.HasPrefix(dot, "digraph citations {") {
		t.Fatalf("bad DOT prefix:\n%s", dot)
	}
	if !strings.Contains(dot, `"p1" -> "p0";`) {
		t.Errorf("missing edge:\n%s", dot)
	}
	if !strings.Contains(dot, `label="p0 (1990)"`) {
		t.Errorf("missing label:\n%s", dot)
	}
	if strings.Count(dot, "->") != n.Edges() {
		t.Errorf("edge count = %d, want %d", strings.Count(dot, "->"), n.Edges())
	}
}

func TestWriteDOTTopCore(t *testing.T) {
	n := buildTiny(t)
	dot := dotString(t, n, 2) // p0 and p2 are the most cited
	if !strings.Contains(dot, `"p0"`) || !strings.Contains(dot, `"p2"`) {
		t.Errorf("core nodes missing:\n%s", dot)
	}
	if strings.Contains(dot, `"p3"`) {
		t.Errorf("excluded node present:\n%s", dot)
	}
	// Only the p2→p0 edge survives within the core.
	if strings.Count(dot, "->") != 1 {
		t.Errorf("core edges = %d, want 1:\n%s", strings.Count(dot, "->"), dot)
	}
}
