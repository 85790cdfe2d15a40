//go:build go1.24

package ingest

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"attrank/internal/core"
	"attrank/internal/impact"
)

// TestRetiredEpochOperatorIsCollected: a full epoch's network and its
// compiled operator live only as long as something holds the network.
// Epoch 2's network is ranked on the pool and by the impact layer, then
// two more full epochs retire it while the ingester stays open; both
// must be collected. (The test seed stays reachable from the test, so
// the watched epoch is the first compacted one.)
//
// runtime.AddCleanup, unlike SetFinalizer, fires for objects in a cycle,
// and the operator and its network reference each other.
func TestRetiredEpochOperatorIsCollected(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Params.Workers = -1 // rank on the pool, as a server does
	cfg.Impact = impact.Config{Enabled: true}
	ing := mustOpen(t, seedNet(t), cfg)

	var netGone, opGone atomic.Bool
	addPaperAndFlush := func(epoch int) {
		t.Helper()
		id := fmt.Sprintf("fresh%d", epoch)
		if _, err := ing.AddPaper(PaperMut{ID: id, Year: 1997}); err != nil {
			t.Fatal(err)
		}
		if _, err := ing.AddCitation(CitationMut{Citing: id, Cited: "hot"}); err != nil {
			t.Fatal(err)
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	func() {
		addPaperAndFlush(2)
		r := ing.Ranking()
		if r.Impact == nil {
			t.Fatal("epoch 2 published no impact indicators")
		}
		runtime.AddCleanup(r.Net, func(b *atomic.Bool) { b.Store(true) }, &netGone)
		runtime.AddCleanup(core.OperatorFor(r.Net), func(b *atomic.Bool) { b.Store(true) }, &opGone)
	}()
	addPaperAndFlush(3)
	addPaperAndFlush(4)
	if got := ing.Ranking().Net.N(); got != 6 {
		t.Fatalf("epoch 4 ranks %d papers, want 6", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for !netGone.Load() || !opGone.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("retired epoch still reachable: network collected %v, operator collected %v",
				netGone.Load(), opGone.Load())
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}
