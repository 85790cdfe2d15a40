package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"attrank/internal/sparse"
)

// TestOperatorForCachesByIdentity: a network has one operator for its
// whole lifetime. OperatorFor has no capacity, so the identity survives
// any number of other networks compiled in between.
func TestOperatorForCachesByIdentity(t *testing.T) {
	a := randomNet(t, 61, 80)
	opA := OperatorFor(a)
	if opA.Network() != a {
		t.Fatal("operator does not report its network")
	}
	if OperatorFor(a) != opA {
		t.Error("same network must yield the same operator")
	}
	for i := 0; i < 16; i++ {
		b := randomNet(t, 62+int64(i), 50)
		if OperatorFor(b) == opA {
			t.Fatal("distinct networks must yield distinct operators")
		}
		if OperatorFor(a) != opA {
			t.Fatalf("operator lost after %d other networks", i+1)
		}
	}
}

// TestOperatorCompilesOnce is the regression test for the old behavior
// where every Rank call renormalized the matrix and every parallel Rank
// call rebuilt the iteration layout: across many ranks of one network,
// exactly one normalization and one tiled-layout build may happen.
func TestOperatorCompilesOnce(t *testing.T) {
	n := randomNet(t, 83, 300)
	p := Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2}

	compiles := KernelCompiles()
	builds := sparse.TiledBuilds()
	for round := 0; round < 3; round++ {
		for _, workers := range []int{0, 1, -1, 4} {
			q := p
			q.Workers = workers
			if _, err := Rank(n, n.MaxYear(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d := KernelCompiles() - compiles; d != 1 {
		t.Errorf("12 ranks compiled the matrix %d times, want 1", d)
	}
	if d := sparse.TiledBuilds() - builds; d != 1 {
		t.Errorf("12 ranks compiled the tiled layout %d times, want 1", d)
	}
}

func TestOperatorCloseRecompiles(t *testing.T) {
	n := randomNet(t, 89, 120)
	op := Compile(n)
	p := Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2, Workers: 2}
	first, err := op.Rank(n.MaxYear(), p)
	if err != nil {
		t.Fatal(err)
	}
	op.Close()
	again, err := op.Rank(n.MaxYear(), p)
	if err != nil {
		t.Fatalf("rank after Close: %v", err)
	}
	for i := range first.Scores {
		if first.Scores[i] != again.Scores[i] {
			t.Fatalf("score %d changed across Close: %v vs %v", i, again.Scores[i], first.Scores[i])
		}
	}
}

func TestOperatorConcurrentRank(t *testing.T) {
	n := randomNet(t, 97, 250)
	op := Compile(n)
	p := Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2}
	want, err := op.Rank(n.MaxYear(), p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := p
			q.Workers = g % 4 // mix of inline and pooled ranks in flight
			res, err := op.Rank(n.MaxYear(), q)
			if err != nil {
				errs <- err
				return
			}
			for i := range want.Scores {
				if res.Scores[i] != want.Scores[i] {
					errs <- errScoreMismatch{i: i, got: res.Scores[i], want: want.Scores[i]}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errScoreMismatch struct {
	i         int
	got, want float64
}

func (e errScoreMismatch) Error() string {
	return "concurrent rank score mismatch"
}

// TestVectorCacheKeepsHotEntry is the regression test for the cache
// thrash bug: reaching vectorCacheCap used to clear the whole map, so an
// alternating hot-key/sweep access pattern over more than cap distinct
// keys recomputed the hot vector on every pass. LRU eviction of a single
// entry must keep the hot vector cached throughout.
func TestVectorCacheKeepsHotEntry(t *testing.T) {
	net := randomNet(t, 211, 200)
	op := Compile(net)
	now := net.MaxYear()

	const rounds = 3
	base := vectorComputes.Load()
	for round := 0; round < rounds; round++ {
		// 17 distinct keys (hot + 16 sweep keys) against a cap of 16,
		// with the hot key touched between every sweep key.
		for y := 2; y <= vectorCacheCap+1; y++ {
			op.attention(now, 1)
			op.attention(now, y)
		}
	}
	// Round 1 computes all 17 vectors; later rounds recompute only the
	// sweep keys (each is the LRU when the next one is inserted) — the
	// hot vector must never be recomputed after its first computation.
	want := int64(vectorCacheCap + 1 + vectorCacheCap*(rounds-1))
	if got := vectorComputes.Load() - base; got != want {
		t.Errorf("sweep recomputed %d vectors, want %d (hot entry evicted?)", got, want)
	}
	pre := vectorComputes.Load()
	op.attention(now, 1)
	if d := vectorComputes.Load() - pre; d != 0 {
		t.Errorf("hot vector recomputed after %d-key sweep", vectorCacheCap+1)
	}
}

// TestUnreachableOperatorStopsPoolWorkers is the resource-lifecycle
// regression test: once a network is unreachable, so is its operator,
// and the pool's finalizer must stop the worker goroutines a parallel
// rank started, verified through the sparse.LiveWorkers hook.
func TestUnreachableOperatorStopsPoolWorkers(t *testing.T) {
	settle := func() int64 {
		prev := sparse.LiveWorkers()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
			if cur := sparse.LiveWorkers(); cur == prev {
				return cur
			} else {
				prev = cur
			}
		}
		return prev
	}
	base := settle()

	// The network and its operator live only inside this call.
	func() {
		net := randomNet(t, 950, 150)
		p := Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2, Workers: 2}
		if _, err := OperatorFor(net).Rank(net.MaxYear(), p); err != nil {
			t.Fatal(err)
		}
	}()
	if sparse.LiveWorkers() <= base {
		t.Fatal("parallel rank did not start pool workers")
	}
	deadline := time.Now().Add(5 * time.Second)
	for sparse.LiveWorkers() > base {
		if time.Now().After(deadline) {
			t.Fatalf("unreachable operator leaked pool workers: %d live, want ≤ %d",
				sparse.LiveWorkers(), base)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOperatorResultVectorsAreCopies guards the cache's copy-out
// semantics: Result exposes the attention and recency vectors, and a
// caller mutating them must not corrupt later ranks.
func TestOperatorResultVectorsAreCopies(t *testing.T) {
	n := randomNet(t, 101, 150)
	op := Compile(n)
	p := Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2}
	first, err := op.Rank(n.MaxYear(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Attention {
		first.Attention[i] = -1
		first.Recency[i] = -1
	}
	again, err := op.Rank(n.MaxYear(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Scores {
		if first.Scores[i] != again.Scores[i] {
			t.Fatalf("cached vectors were corrupted by caller mutation (score %d: %v vs %v)",
				i, again.Scores[i], first.Scores[i])
		}
	}
}
