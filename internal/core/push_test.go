package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"attrank/internal/graph"
)

func pushParams() Params {
	return Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16}
}

// unboundedPush keeps every budget out of the way so tests exercise the
// numerics, not the fallback policy.
func unboundedPush(tol float64) PushConfig {
	return PushConfig{Tol: tol, MaxResidual: -1, MaxTouchedFrac: -1, MaxPushes: -1}
}

// pushMut is one recorded citation, replayable against a Pusher and
// against a compacting builder.
type pushMut struct {
	citing int32
	cited  int32
}

// applyRandomMuts drives pu through random valid citations and returns
// the accepted sequence.
func applyRandomMuts(t *testing.T, pu *Pusher, rng *rand.Rand, count int) []pushMut {
	t.Helper()
	n := pu.Base().N()
	var muts []pushMut
	for tries := 0; len(muts) < count && tries < 100*count; tries++ {
		citing, cited := int32(rng.Intn(n)), int32(rng.Intn(n))
		if err := pu.AddCitation(citing, cited); err != nil {
			continue // invalid pick (self/dup/…): state untouched, try again
		}
		muts = append(muts, pushMut{citing: citing, cited: cited})
	}
	if len(muts) < count {
		t.Fatalf("only %d/%d valid mutations found", len(muts), count)
	}
	return muts
}

// compactMuts rebuilds base+muts through the builder.
func compactMuts(t *testing.T, base *graph.Network, muts []pushMut) *graph.Network {
	t.Helper()
	b := graph.NewBuilderFrom(base)
	for _, m := range muts {
		b.AddEdgeByIndex(m.citing, m.cited)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func l1(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// TestPushWithinBoundOfExactRank is the central metamorphic property:
// after any accepted mutation batch and a settle, the pusher's scores
// must lie within its own reported error bound of a cold exact rank of
// the compacted graph — across random graphs, batches and both default
// parameterizations.
func TestPushWithinBoundOfExactRank(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, p := range []Params{pushParams(), {Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.3}} {
			base := randomNet(t, seed, 50+int(seed)*17)
			now := base.MaxYear()
			exact0, err := Rank(base, now, p)
			if err != nil {
				t.Fatal(err)
			}
			pu, err := NewPusher(base, now, p, unboundedPush(1e-10), exact0.Scores)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 31))
			var all []pushMut
			for batch := 0; batch < 3; batch++ {
				all = append(all, applyRandomMuts(t, pu, rng, 5)...)
				st, err := pu.Settle()
				if err != nil {
					t.Fatal(err)
				}
				exact, err := Rank(compactMuts(t, base, all), now, p)
				if err != nil {
					t.Fatal(err)
				}
				if dev := l1(pu.Scores(), exact.Scores); dev > st.Bound+1e-9 {
					t.Fatalf("seed %d batch %d: deviation %.3g exceeds bound %.3g", seed, batch, dev, st.Bound)
				}
			}
		}
	}
}

// TestPushDeterministicReplay: two pushers fed the identical accepted
// sequence settle to bit-identical scores — the property follower-side
// push replay depends on.
func TestPushDeterministicReplay(t *testing.T) {
	base := randomNet(t, 11, 80)
	now := base.MaxYear()
	p := pushParams()
	exact, err := Rank(base, now, p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewPusher(base, now, p, unboundedPush(1e-8), exact.Scores)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	muts := applyRandomMuts(t, a, rng, 20)
	if _, err := a.Settle(); err != nil {
		t.Fatal(err)
	}

	b, err := NewPusher(base, now, p, unboundedPush(1e-8), exact.Scores)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		if err := b.AddCitation(m.citing, m.cited); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Settle(); err != nil {
		t.Fatal(err)
	}
	as, bs := a.Scores(), b.Scores()
	if len(as) != len(bs) {
		t.Fatalf("replay sizes differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("node %d: replay diverged: %v vs %v", i, as[i], bs[i])
		}
	}
}

// TestPushAdversarialBatches: dangling citers and empty attention
// windows — the structurally nasty cases.
func TestPushAdversarialBatches(t *testing.T) {
	p := pushParams()

	t.Run("dangling-citer-column-flip", func(t *testing.T) {
		// p3 is dangling (cites nothing); its first citation flips the
		// uniform column to e_cited.
		b := graph.NewBuilder()
		for i, y := range []int{1990, 1994, 1996, 1996} {
			if _, err := b.AddPaper(fmt.Sprintf("p%d", i), y, nil, ""); err != nil {
				t.Fatal(err)
			}
		}
		b.AddEdgeByIndex(1, 0)
		b.AddEdgeByIndex(2, 0)
		base, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		now := base.MaxYear()
		exact0, err := Rank(base, now, p)
		if err != nil {
			t.Fatal(err)
		}
		pu, err := NewPusher(base, now, p, unboundedPush(1e-10), exact0.Scores)
		if err != nil {
			t.Fatal(err)
		}
		if err := pu.AddCitation(3, 0); err != nil {
			t.Fatal(err)
		}
		st, err := pu.Settle()
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Rank(compactMuts(t, base, []pushMut{{citing: 3, cited: 0}}), now, p)
		if err != nil {
			t.Fatal(err)
		}
		if dev := l1(pu.Scores(), exact.Scores); dev > st.Bound+1e-9 {
			t.Fatalf("deviation %.3g exceeds bound %.3g", dev, st.Bound)
		}
	})

	t.Run("empty-attention-window", func(t *testing.T) {
		// Window papers exist but made no citations: T = 0, the uniform
		// attention fallback. The first window citation is a dense swap;
		// the pusher must stay within its (large) bound.
		b := graph.NewBuilder()
		for i, y := range []int{1980, 1981, 1996, 1996} {
			if _, err := b.AddPaper(fmt.Sprintf("p%d", i), y, nil, ""); err != nil {
				t.Fatal(err)
			}
		}
		b.AddEdgeByIndex(1, 0)
		base, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		now := base.MaxYear()
		exact0, err := Rank(base, now, p)
		if err != nil {
			t.Fatal(err)
		}
		pu, err := NewPusher(base, now, p, unboundedPush(1e-10), exact0.Scores)
		if err != nil {
			t.Fatal(err)
		}
		if err := pu.AddCitation(2, 0); err != nil { // p2 is in the window
			t.Fatal(err)
		}
		st, err := pu.Settle()
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Rank(compactMuts(t, base, []pushMut{{citing: 2, cited: 0}}), now, p)
		if err != nil {
			t.Fatal(err)
		}
		if dev := l1(pu.Scores(), exact.Scores); dev > st.Bound+1e-9 {
			t.Fatalf("deviation %.3g exceeds bound %.3g", dev, st.Bound)
		}
	})
}

// TestPushRejections: invalid citations error without corrupting state.
func TestPushRejections(t *testing.T) {
	base := randomNet(t, 1, 30)
	now := base.MaxYear()
	p := pushParams()
	exact, err := Rank(base, now, p)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := NewPusher(base, now, p, unboundedPush(1e-10), exact.Scores)
	if err != nil {
		t.Fatal(err)
	}
	if err := pu.AddCitation(2, 2); err == nil {
		t.Error("self-citation accepted")
	}
	if err := pu.AddCitation(0, 9999); err == nil {
		t.Error("out-of-range citation accepted")
	}
	// Find one existing edge and replay it: must be rejected.
	var dupFrom, dupTo int32 = -1, -1
	for i := int32(0); int(i) < base.N() && dupFrom < 0; i++ {
		base.References(i, func(r int32) {
			if dupFrom < 0 {
				dupFrom, dupTo = i, r
			}
		})
	}
	if dupFrom < 0 {
		t.Fatal("no edges in test net")
	}
	if err := pu.AddCitation(dupFrom, dupTo); err == nil {
		t.Error("duplicate citation accepted")
	}
	// None of the rejects may have perturbed the state.
	if pu.Applied() != 0 || pu.Bound() != 0 {
		t.Fatalf("rejected mutations left state: applied=%d bound=%v", pu.Applied(), pu.Bound())
	}
	// Validation errors must also stay usable: a valid mutation still works.
	if err := pu.AddCitation(dupFrom, dupFrom+1); err != nil {
		// dupFrom+1 may be a duplicate too; any valid pair will do.
		ok := false
		for to := int32(0); int(to) < base.N(); to++ {
			if pu.AddCitation(dupFrom, to) == nil {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatal("no valid citation accepted after rejections")
		}
	}
	if _, err := pu.Settle(); err != nil {
		t.Fatal(err)
	}
}

// TestPushBudgetsForceFull: each budget breach must come back as
// ErrNeedFull so the ingest scheduler falls back to the full path.
func TestPushBudgetsForceFull(t *testing.T) {
	base := randomNet(t, 2, 60)
	now := base.MaxYear()
	p := pushParams()
	exact, err := Rank(base, now, p)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]PushConfig{
		"max-residual":     {Tol: 1e-10, MaxResidual: 1e-300, MaxTouchedFrac: -1, MaxPushes: -1},
		"max-touched-frac": {Tol: 1e-10, MaxResidual: -1, MaxTouchedFrac: 1e-9, MaxPushes: -1},
		"max-pushes":       {Tol: 1e-10, MaxResidual: -1, MaxTouchedFrac: -1, MaxPushes: 1},
	} {
		pu, err := NewPusher(base, now, p, cfg, exact.Scores)
		if err != nil {
			t.Fatal(err)
		}
		applyRandomMuts(t, pu, rand.New(rand.NewSource(4)), 10)
		if _, err := pu.Settle(); !errors.Is(err, ErrNeedFull) {
			t.Errorf("%s: Settle err = %v, want ErrNeedFull", name, err)
		}
	}
}

// TestTrackerSeedMismatchClearsChain is the regression for the
// warm-start bug: a Seed that fails on a length mismatch must not leave
// the previous chain state behind, where the next Update would silently
// warm-start from scores belonging to a different corpus.
func TestTrackerSeedMismatchClearsChain(t *testing.T) {
	net := randomNet(t, 8, 40)
	now := net.MaxYear()
	p := pushParams()
	res, err := Rank(net, now, p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Seed(net, res.Scores); err != nil {
		t.Fatal(err)
	}
	if tr.Tracked() != net.N() {
		t.Fatalf("Tracked() = %d after valid seed, want %d", tr.Tracked(), net.N())
	}
	if err := tr.Seed(net, res.Scores[:net.N()-1]); err == nil {
		t.Fatal("short seed vector accepted")
	}
	if tr.Tracked() != 0 {
		t.Fatalf("Tracked() = %d after failed seed, want 0 (stale chain must be cleared)", tr.Tracked())
	}
	// The next Update must behave like a cold start, not resume the
	// discarded chain.
	up, err := tr.Update(net, now)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Rank(net, now, p)
	if err != nil {
		t.Fatal(err)
	}
	if up.Iterations != cold.Iterations {
		t.Fatalf("post-failure Update took %d iterations, cold rank %d — it warm-started from cleared state", up.Iterations, cold.Iterations)
	}
	for i := range cold.Scores {
		if up.Scores[i] != cold.Scores[i] {
			t.Fatalf("node %d: post-failure Update %v != cold rank %v", i, up.Scores[i], cold.Scores[i])
		}
	}
}
