package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// pushTestGraph is a minimal static PushGraph for kernel tests.
type pushTestGraph struct {
	refs [][]int32
}

func (g *pushTestGraph) N() int                { return len(g.refs) }
func (g *pushTestGraph) OutDegree(v int32) int { return len(g.refs[v]) }
func (g *pushTestGraph) References(v int32, fn func(ref int32)) {
	for _, r := range g.refs[v] {
		fn(r)
	}
}

func randomPushGraph(rng *rand.Rand, n int, dangleEvery int) *pushTestGraph {
	g := &pushTestGraph{refs: make([][]int32, n)}
	for v := 0; v < n; v++ {
		if dangleEvery > 0 && v%dangleEvery == 0 {
			continue // dangling
		}
		deg := 1 + rng.Intn(4)
		seen := map[int32]bool{int32(v): true}
		for d := 0; d < deg; d++ {
			r := int32(rng.Intn(n))
			if !seen[r] {
				seen[r] = true
				g.refs[v] = append(g.refs[v], r)
			}
		}
	}
	return g
}

// exactSolve iterates x ← αS·x + b to convergence, where S's column v
// spreads 1/k_v to v's references and dangling columns are zero — the
// system the kernel settles (dangling mass is ledger-accounted, not
// spread).
func exactSolve(g *pushTestGraph, alpha float64, b []float64) []float64 {
	n := g.N()
	x := make([]float64, n)
	next := make([]float64, n)
	for it := 0; it < 2000; it++ {
		copy(next, b)
		for v := 0; v < n; v++ {
			if k := len(g.refs[v]); k > 0 {
				m := alpha * x[v] / float64(k)
				for _, r := range g.refs[v] {
					next[r] += m
				}
			}
		}
		x, next = next, x
	}
	return x
}

func seedAll(t *testing.T, p *Pusher, b []float64) {
	t.Helper()
	for i, v := range b {
		if v != 0 {
			p.AddResidual(int32(i), v)
		}
	}
}

// TestPushSolvesLinearSystem: settling the seeded residual must land
// within the kernel's own error bound of the exact solution, across
// random graphs (with dangling nodes) and mixed-sign seeds.
func TestPushSolvesLinearSystem(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomPushGraph(rng, 50+rng.Intn(100), 7)
		alpha := 0.3 + 0.4*rng.Float64()
		b := make([]float64, g.N())
		for i := range b {
			b[i] = rng.Float64() - 0.3 // mixed signs
		}
		p, err := NewPusher(g, alpha, make([]float64, g.N()))
		if err != nil {
			t.Fatal(err)
		}
		seedAll(t, p, b)
		tol := 1e-10
		if _, err := p.Settle(tol, 1<<30); err != nil {
			t.Fatal(err)
		}
		if p.SumAbs() > tol {
			t.Fatalf("seed %d: settle left sumAbs %.3g > tol %.3g", seed, p.SumAbs(), tol)
		}
		want := exactSolve(g, alpha, b)
		var dev float64
		for i, w := range want {
			dev += math.Abs(p.X(int32(i)) - w)
		}
		// The sparse residual alone bounds the distance to this system's
		// solution; the ledger covers dangling-model mass on top.
		if limit := p.SumAbs()/(1-alpha) + 1e-9; dev > limit {
			t.Fatalf("seed %d: ‖x−x*‖₁ = %.3g exceeds residual bound %.3g", seed, dev, limit)
		}
		if dev > p.Bound()+1e-9 {
			t.Fatalf("seed %d: deviation %.3g exceeds Bound() %.3g", seed, dev, p.Bound())
		}
	}
}

// TestPushIncrementalMatchesBatch: seeding in two installments with an
// intermediate settle must stay within the bound of the same solution,
// and two pushers fed the identical sequence must agree bit for bit.
func TestPushIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomPushGraph(rng, 80, 9)
	alpha := 0.5
	b := make([]float64, g.N())
	for i := range b {
		b[i] = rng.Float64()
	}
	mk := func() *Pusher {
		p, err := NewPusher(g, alpha, make([]float64, g.N()))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	inc, twin := mk(), mk()
	half := len(b) / 2
	for _, p := range []*Pusher{inc, twin} {
		seedAll(t, p, b[:half])
		if _, err := p.Settle(1e-10, 1<<30); err != nil {
			t.Fatal(err)
		}
		for i := half; i < len(b); i++ {
			p.AddResidual(int32(i), b[i])
		}
		if _, err := p.Settle(1e-10, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < g.N(); i++ {
		if inc.X(int32(i)) != twin.X(int32(i)) {
			t.Fatalf("node %d: replay diverged: %v vs %v", i, inc.X(int32(i)), twin.X(int32(i)))
		}
	}
	want := exactSolve(g, alpha, b)
	var dev float64
	for i, w := range want {
		dev += math.Abs(inc.X(int32(i)) - w)
	}
	if dev > inc.Bound()+1e-9 {
		t.Fatalf("incremental deviation %.3g exceeds bound %.3g", dev, inc.Bound())
	}
}

// TestPushBudgetResume: an ErrPushBudget abort must leave the state
// resumable — repeated tiny-budget settles eventually drain the same
// residual a single unbounded settle would, with no mass lost.
func TestPushBudgetResume(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomPushGraph(rng, 60, 0)
	b := make([]float64, g.N())
	for i := range b {
		b[i] = rng.Float64()
	}
	p, err := NewPusher(g, 0.5, make([]float64, g.N()))
	if err != nil {
		t.Fatal(err)
	}
	seedAll(t, p, b)
	aborts := 0
	for {
		_, err := p.Settle(1e-10, 3)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrPushBudget) {
			t.Fatal(err)
		}
		if aborts++; aborts > 1<<22 {
			t.Fatal("budget-limited settle never drained")
		}
	}
	if aborts == 0 {
		t.Fatal("budget of 3 pushes never aborted; test is vacuous")
	}
	want := exactSolve(g, 0.5, b)
	var dev float64
	for i, w := range want {
		dev += math.Abs(p.X(int32(i)) - w)
	}
	if dev > p.Bound()+1e-9 {
		t.Fatalf("deviation %.3g exceeds bound %.3g after %d aborts", dev, p.Bound(), aborts)
	}
}

// TestPushDanglingLedger: pushing at a dangling node must move its mass
// into x and account the α-spread it cannot perform in the ledger.
func TestPushDanglingLedger(t *testing.T) {
	g := &pushTestGraph{refs: [][]int32{nil}} // one dangling node
	p, err := NewPusher(g, 0.5, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	p.AddResidual(0, 1)
	if _, err := p.Settle(1e-12, 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := p.X(0); got != 1 {
		t.Fatalf("x[0] = %v, want 1", got)
	}
	if got := p.Ledger(); got != 0.5 {
		t.Fatalf("ledger = %v, want α·1 = 0.5", got)
	}
}

// TestPusherValidation: constructor argument errors.
func TestPusherValidation(t *testing.T) {
	g := &pushTestGraph{refs: [][]int32{nil}}
	if _, err := NewPusher(g, 1.0, []float64{0}); err == nil {
		t.Error("α = 1 accepted")
	}
	if _, err := NewPusher(g, -0.1, []float64{0}); err == nil {
		t.Error("α < 0 accepted")
	}
	if _, err := NewPusher(g, 0.5, []float64{0, 0}); err == nil {
		t.Error("score length mismatch accepted")
	}
}
