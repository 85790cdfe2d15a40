package graph

import "testing"

// relNet: classic co-citation/coupling fixture.
//
//	a (1990), b (1991): the two classics
//	r1, r2 (1995): both cite a and b  → a,b co-cited twice, r1/r2 coupled 2
//	r3 (1996): cites only a
func relNet(t *testing.T) *Network {
	t.Helper()
	bld := NewBuilder()
	for _, p := range []struct {
		id   string
		year int
	}{{"a", 1990}, {"b", 1991}, {"r1", 1995}, {"r2", 1995}, {"r3", 1996}} {
		if _, err := bld.AddPaper(p.id, p.year, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{
		{"r1", "a"}, {"r1", "b"},
		{"r2", "a"}, {"r2", "b"},
		{"r3", "a"},
	} {
		bld.AddEdge(e[0], e[1])
	}
	n, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRelatedPapers(t *testing.T) {
	n := relNet(t)
	a, _ := n.Lookup("a")
	b, _ := n.Lookup("b")
	rel := n.RelatedPapers(a, 10)
	if len(rel) == 0 {
		t.Fatal("no related papers")
	}
	// b is co-cited with a twice — it must lead the list.
	if rel[0].Paper != b {
		t.Errorf("top related to a = %v, want b", n.Paper(rel[0].Paper).ID)
	}
	if rel[0].CoCited != 2 {
		t.Errorf("b co-cited = %d, want 2", rel[0].CoCited)
	}
	// The paper itself never appears.
	for _, r := range rel {
		if r.Paper == a {
			t.Error("paper related to itself")
		}
	}
	// k clamping and k ≤ 0.
	if got := n.RelatedPapers(a, 1); len(got) != 1 {
		t.Errorf("k=1 returned %d", len(got))
	}
	if got := n.RelatedPapers(a, 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
}

func TestRelatedPapersCoupling(t *testing.T) {
	n := relNet(t)
	r1, _ := n.Lookup("r1")
	r2, _ := n.Lookup("r2")
	rel := n.RelatedPapers(r1, 10)
	if len(rel) == 0 {
		t.Fatal("no related papers")
	}
	if rel[0].Paper != r2 {
		t.Errorf("top related to r1 = %s, want r2", n.Paper(rel[0].Paper).ID)
	}
	if rel[0].Coupled != 2 {
		t.Errorf("r2 coupling = %d, want 2", rel[0].Coupled)
	}
}

func TestRelatedPapersIsolated(t *testing.T) {
	b := NewBuilder()
	b.AddPaper("solo", 2000, nil, "")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.RelatedPapers(0, 5); len(got) != 0 {
		t.Errorf("isolated paper has %d related", len(got))
	}
}
