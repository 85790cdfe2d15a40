package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func overlayBase(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	for i, y := range []int{1990, 1994, 1996, 1996} {
		if _, err := b.AddPaper(fmt.Sprintf("p%d", i), y, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int32{{1, 0}, {2, 0}, {2, 1}, {3, 2}} {
		b.AddEdgeByIndex(e[0], e[1])
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func refList(o *Overlay, v int32) []int32 {
	var out []int32
	o.References(v, func(r int32) { out = append(out, r) })
	return out
}

// TestOverlayMirrorsBase: a fresh overlay is a transparent view of the
// base network.
func TestOverlayMirrorsBase(t *testing.T) {
	base := overlayBase(t)
	o := NewOverlay(base)
	if o.N() != base.N() || len(o.extra) != 0 {
		t.Fatalf("fresh overlay: N=%d fringe %v", o.N(), o.extra)
	}
	for i := int32(0); int(i) < base.N(); i++ {
		if o.Year(i) != base.Year(i) {
			t.Fatalf("node %d: year %d vs base %d", i, o.Year(i), base.Year(i))
		}
		if o.OutDegree(i) != int(base.OutDegree(i)) {
			t.Fatalf("node %d: outdeg %d vs base %d", i, o.OutDegree(i), base.OutDegree(i))
		}
		var baseRefs []int32
		base.References(i, func(r int32) { baseRefs = append(baseRefs, r) })
		got := refList(o, i)
		if len(got) != len(baseRefs) {
			t.Fatalf("node %d: %d refs vs base %d", i, len(got), len(baseRefs))
		}
		for j := range got {
			if got[j] != baseRefs[j] {
				t.Fatalf("node %d ref %d: %d vs base %d (order must match)", i, j, got[j], baseRefs[j])
			}
		}
	}
	if !o.HasEdge(1, 0) || o.HasEdge(0, 1) {
		t.Fatal("HasEdge does not mirror the base")
	}
}

// TestOverlayMutations: fringe edges extend the view, with base
// references first and fringe references in arrival order.
func TestOverlayMutations(t *testing.T) {
	o := NewOverlay(overlayBase(t))
	for _, e := range [][2]int32{{1, 2}, {3, 1}, {3, 0}, {0, 3}} {
		if err := o.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if o.N() != 4 {
		t.Fatalf("N = %d after fringe edges, want 4 (edges add no nodes)", o.N())
	}
	if got := refList(o, 0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("fringe refs of dangling 0 = %v, want [3]", got)
	}
	if got := refList(o, 3); len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("refs of 3 = %v, want [2 1 0] (base then fringe in arrival order)", got)
	}
	extra := 0
	for _, refs := range o.extra {
		extra += len(refs)
	}
	if o.OutDegree(3) != 3 || o.OutDegree(0) != 1 || extra != 4 {
		t.Fatalf("outdeg(3)=%d outdeg(0)=%d extra edges=%d", o.OutDegree(3), o.OutDegree(0), extra)
	}
	if !o.HasEdge(3, 0) || !o.HasEdge(0, 3) || !o.HasEdge(3, 2) || o.HasEdge(2, 3) {
		t.Fatal("HasEdge does not see base and fringe edges")
	}
}

// TestOverlayRejects: the overlay enforces the same edge rules the
// builder's Build does, so a compaction of its mutations cannot fail.
func TestOverlayRejects(t *testing.T) {
	o := NewOverlay(overlayBase(t))
	if err := o.AddEdge(1, 1); err == nil {
		t.Error("self-citation accepted")
	}
	if err := o.AddEdge(1, 0); err == nil {
		t.Error("duplicate base edge accepted")
	}
	if err := o.AddEdge(0, 99); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := o.AddEdge(-1, 0); err == nil {
		t.Error("negative source accepted")
	}
	if err := o.AddEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(3, 0); err == nil {
		t.Error("duplicate fringe edge accepted")
	}
}

// TestOverlayMatchesBuilderCompaction: the overlay's node indexing and
// edge set must agree with compacting the same mutations through
// NewBuilderFrom — the property the incremental ranker's reconciliation
// depends on.
func TestOverlayMatchesBuilderCompaction(t *testing.T) {
	base := overlayBase(t)
	o := NewOverlay(base)
	b := NewBuilderFrom(base)
	rng := rand.New(rand.NewSource(3))

	added := 0
	for tries := 0; added < 6 && tries < 200; tries++ {
		citing, cited := int32(rng.Intn(o.N())), int32(rng.Intn(o.N()))
		if err := o.AddEdge(citing, cited); err != nil {
			continue
		}
		b.AddEdgeByIndex(citing, cited)
		added++
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != o.N() {
		t.Fatalf("compacted N %d, overlay N %d", net.N(), o.N())
	}
	for i := int32(0); int(i) < net.N(); i++ {
		if net.Year(i) != o.Year(i) {
			t.Fatalf("node %d: compacted year %d, overlay year %d", i, net.Year(i), o.Year(i))
		}
		if int(net.OutDegree(i)) != o.OutDegree(i) {
			t.Fatalf("node %d: compacted outdeg %d, overlay %d", i, net.OutDegree(i), o.OutDegree(i))
		}
		// Same edge set (order may differ across the compaction).
		want := map[int32]bool{}
		net.References(i, func(r int32) { want[r] = true })
		o.References(i, func(r int32) {
			if !want[r] {
				t.Fatalf("node %d: overlay edge →%d missing after compaction", i, r)
			}
			delete(want, r)
		})
		if len(want) != 0 {
			t.Fatalf("node %d: compaction has %d edges the overlay lacks", i, len(want))
		}
	}
}
