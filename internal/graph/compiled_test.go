package graph

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCompiledSplicedSuccessorHasOwnMemo: a network's memo belongs to it
// alone. A successor spliced from it, with or without additions, builds
// its own value and never returns its base's, and the base keeps its
// value without rebuilding.
func TestCompiledSplicedSuccessorHasOwnMemo(t *testing.T) {
	base := buildTiny(t)
	builds := 0
	build := func() any { builds++; return new(int) }
	v := base.Compiled(build)

	same, err := NewBuilderFrom(base).Build()
	if err != nil {
		t.Fatal(err)
	}
	grownB := NewBuilderFrom(base)
	if _, err := grownB.AddPaper("x0", 2030, nil, ""); err != nil {
		t.Fatal(err)
	}
	grownB.AddEdge("x0", "p0")
	grown, err := grownB.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, succ := range map[string]*Network{"unchanged": same, "grown": grown} {
		if succ.Compiled(build) == v {
			t.Errorf("%s successor returned its base's memo", name)
		}
	}
	if base.Compiled(build) != v {
		t.Error("base lost its memo to a successor")
	}
	if builds != 3 {
		t.Errorf("build ran %d times, want 3 (base, two successors)", builds)
	}
}

// TestCompiledBuildsOnceConcurrently: concurrent first calls on one
// network run build exactly once and all return its value.
func TestCompiledBuildsOnceConcurrently(t *testing.T) {
	net := buildTiny(t)
	var builds atomic.Int64
	build := func() any { builds.Add(1); return new(int) }
	const callers = 16
	got := make([]any, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i] = net.Compiled(build)
		}()
	}
	start.Done()
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d got a different value", i)
		}
	}
}
