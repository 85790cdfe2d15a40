package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"attrank/internal/graph"
	"attrank/internal/sparse"
)

// spliceNet returns net spliced with papers new papers (every fourth
// cites nothing, the others one to three old papers), oldOld citations
// between old papers and newNew among the new ones: the shape of a full
// epoch's compaction.
func spliceNet(t testing.TB, rng *rand.Rand, net *graph.Network, papers, oldOld, newNew int) *graph.Network {
	t.Helper()
	n0 := net.N()
	b := graph.NewBuilderFrom(net)
	for i := 0; i < papers; i++ {
		idx, err := b.AddPaper(fmt.Sprintf("g%d", n0+i), net.MaxYear()+1, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			continue
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			b.AddEdgeByIndex(idx, int32(rng.Intn(n0)))
		}
	}
	cite := func(lo, span int) {
		c, r := lo+rng.Intn(span), lo+rng.Intn(span)
		if c != r {
			b.AddEdgeByIndex(int32(c), int32(r))
		}
	}
	for i := 0; i < oldOld; i++ {
		cite(0, n0)
	}
	for i := 0; i < newNew && papers > 1; i++ {
		cite(n0, papers)
	}
	next, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// windowsOf is the column-window count of an n-paper layout.
func windowsOf(n int) int { return max(1, (n+1<<sparse.WindowBits-1)>>sparse.WindowBits) }

// TestDerivedCompileMatchesScratch: along splice chains of networks,
// each operator compiled from the previous one (compileFrom) holds the
// layout a scratch compile of its network gives, field for field, and
// is derived exactly when the window count did not change. The chains
// run on a base under 64Ki papers, one over it, and one that crosses
// 65,536 papers, where the compile falls back to scratch and the chain
// derives again after it.
func TestDerivedCompileMatchesScratch(t *testing.T) {
	for _, tc := range []struct {
		name        string
		size, steps int
	}{
		{"one-window", 5000, 6},
		{"two-window", 1<<sparse.WindowBits + 2000, 3},
		{"crossing", 1<<sparse.WindowBits - 6, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.size)))
			net := randomNet(t, int64(tc.size), tc.size)
			prev := Compile(net)
			if _, err := prev.PrimeKernel(); err != nil {
				t.Fatal(err)
			}
			crossed := false
			for step := 0; step < tc.steps; step++ {
				next := spliceNet(t, rng, net, 3, step%3, step%2)
				op := Compile(next)
				if err := op.compileFrom(prev); err != nil {
					t.Fatal(err)
				}
				wantDerived := windowsOf(next.N()) == windowsOf(net.N())
				crossed = crossed || !wantDerived
				if op.compile.Derived != wantDerived {
					t.Fatalf("step %d (%d → %d papers): derived %v, want %v", step, net.N(), next.N(), op.compile.Derived, wantDerived)
				}
				s, err := next.StochasticMatrix()
				if err != nil {
					t.Fatal(err)
				}
				// The same pool, and neither layout has stepped, so even
				// the pool fields compare equal.
				if want := s.Tiled(op.pool, s.DegreeOrder(nil)); !reflect.DeepEqual(op.tiled, want) {
					t.Fatalf("step %d (%d → %d papers): compiled layout differs from a scratch compile", step, net.N(), next.N())
				}
				prev.Close()
				net, prev = next, op
			}
			prev.Close()
			if tc.name == "crossing" && !crossed {
				t.Fatal("the chain never crossed 65,536 papers")
			}
		})
	}
}

// TestCompileFromDeclines: compileFrom compiles from scratch when the
// previous operator has no tiles (never ranked, or closed), when either
// operator has a forced permutation, and when the network does not
// extend the previous one.
func TestCompileFromDeclines(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := randomNet(t, 1, 800)
	next := spliceNet(t, rng, base, 2, 1, 0)
	other := randomNet(t, 2, 900)
	for _, tc := range []struct {
		name  string
		setup func(prev, op *Operator)
		net   *graph.Network
	}{
		{"prev not compiled", func(prev, op *Operator) {}, next},
		{"prev closed", func(prev, op *Operator) { prev.PrimeKernel(); prev.Close() }, next},
		{"prev forced", func(prev, op *Operator) { prev.forcePermutation(sparse.IdentityPerm(base.N())); prev.PrimeKernel() }, next},
		{"op forced", func(prev, op *Operator) { prev.PrimeKernel(); op.forcePermutation(sparse.IdentityPerm(next.N())) }, next},
		{"not a successor", func(prev, op *Operator) { prev.PrimeKernel() }, other},
	} {
		prev, op := Compile(base), Compile(tc.net)
		tc.setup(prev, op)
		if err := op.compileFrom(prev); err != nil {
			t.Fatal(err)
		}
		if op.compile.Derived {
			t.Errorf("%s: compile derived, want scratch", tc.name)
		}
		prev.Close()
		op.Close()
	}
}

// TestTrackerDerivesLayout: every Update of a tracker along a splice
// chain compiles its network by deriving (counted in KernelCompiles,
// sparse.TiledBuilds and attrank_core_kernel_compiles_total{kind=
// "derived"}), and ranks bit for bit as a second tracker over an equal
// chain whose every compile runs from scratch.
func TestTrackerDerivesLayout(t *testing.T) {
	p := trackerParams()
	chain := func() []*graph.Network {
		rng := rand.New(rand.NewSource(9))
		nets := []*graph.Network{randomNet(t, 9, 3000)}
		for step := 0; step < 4; step++ {
			nets = append(nets, spliceNet(t, rng, nets[step], 1+step, step, step%2))
		}
		return nets
	}
	derived, scratch := chain(), chain()
	td, err := NewTracker(p)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTracker(p)
	if err != nil {
		t.Fatal(err)
	}
	now := derived[0].MaxYear()
	for i := range derived {
		kinds, compiles, builds := mKernelCompiles.With("derived").Value(), KernelCompiles(), sparse.TiledBuilds()
		got, err := td.Update(derived[i], now)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			OperatorFor(scratch[i-1]).Close() // no tiles to derive from
		}
		want, err := ts.Update(scratch[i], now)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if !OperatorFor(derived[i]).compile.Derived || OperatorFor(scratch[i]).compile.Derived {
				t.Fatalf("update %d: derived %v and %v, want true and false", i,
					OperatorFor(derived[i]).compile.Derived, OperatorFor(scratch[i]).compile.Derived)
			}
			if d := mKernelCompiles.With("derived").Value() - kinds; d != 1 {
				t.Errorf("update %d: %d derived compiles counted, want 1", i, d)
			}
			if d, b := KernelCompiles()-compiles, sparse.TiledBuilds()-builds; d != 2 || b != 2 {
				t.Errorf("update %d: %d kernel compiles and %d tiled builds, want 2 each", i, d, b)
			}
		}
		if !reflect.DeepEqual(got.Scores, want.Scores) || !reflect.DeepEqual(got.Residuals, want.Residuals) {
			t.Fatalf("update %d: derived-layout rank differs from the scratch-compiled one", i)
		}
	}
}
