package ingest

import (
	"errors"
	"fmt"
	"time"

	"attrank/internal/impact"
)

// This file is the ingester's replication surface: the WAL doubles as a
// replication log (see internal/replication and DESIGN.md §12). A
// leader's followers consume it through three primitives —
//
//   - ReplCursor: where the log stands (identity, generation, the byte
//     offset of the last committed epoch boundary, and that epoch).
//   - ReplState: a bootstrap-consistent (Ranking, ReplCursor) pair, so
//     a follower can seed its corpus, scores and warm-start chain and
//     know the exact offset to stream from.
//   - ReadWALAt: durable log bytes by (gen, offset), clamped to the
//     last acknowledged record so torn in-flight appends never ship.

// ReplCursor locates the replication log at the last committed epoch
// boundary. Offsets are only meaningful within one (Instance, Gen)
// pair: a new Instance means the leader restarted (and rebuilt its
// warm-start chain), a new Gen means the WAL was compacted away — both
// require a follower full-resync.
type ReplCursor struct {
	// Instance is the leader process's random nonce, minted per Open.
	Instance uint64
	// Gen is the WAL generation (bumped by every snapshot compaction).
	Gen uint64
	// Offset is the WAL byte offset immediately after epoch Epoch's
	// marker record — the position a follower bootstrapped at Epoch
	// must stream from.
	Offset int64
	// Epoch is the most recently claimed (marker-committed) epoch.
	Epoch uint64
}

// ErrWALRotated reports that the requested WAL generation is gone (a
// snapshot compacted the log). The caller's offsets are meaningless
// now; a follower recovers by re-bootstrapping via ReplState.
var ErrWALRotated = errors.New("ingest: wal generation rotated")

// storeCursor publishes the replication cursor for the current WAL
// position and claimed epoch, and returns it. Requires ing.mu (or the
// single-threaded sections of Open).
func (ing *Ingester) storeCursor() *ReplCursor {
	c := &ReplCursor{
		Instance: ing.instance,
		Gen:      ing.wal.Gen(),
		Offset:   ing.wal.Size(),
		Epoch:    ing.claimed.Load(),
	}
	ing.cursor.Store(c)
	return c
}

// ReplCursor returns the current replication cursor.
func (ing *Ingester) ReplCursor() ReplCursor {
	if c := ing.cursor.Load(); c != nil {
		return *c
	}
	return ReplCursor{Instance: ing.instance}
}

// ReplState returns the last FULL (exact-rank) ranking together with
// the cursor that matches it: the cursor's epoch equals the ranking's
// epoch and its offset points right after that epoch's marker, so a
// follower seeded from this pair streams from exactly the offset where
// its state ends. Bootstrap is anchored at full boundaries on purpose —
// a follower seeds its warm-start chain from exact scores and replays
// any later push-mode epochs itself from the shipped WAL, so
// approximate state is never used as a seed. A publish in flight makes
// the pair momentarily disagree; ReplState waits the handful of
// milliseconds until they line up again.
func (ing *Ingester) ReplState() (*Ranking, ReplCursor, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		r := ing.fullRank.Load()
		c := ing.fullCursor.Load()
		if r != nil && c != nil && r.Epoch == c.Epoch {
			return r, *c, nil
		}
		if r == nil && ing.ReplCursor().Epoch == 0 {
			return nil, ing.ReplCursor(), fmt.Errorf("ingest: no ranking published yet (corpus empty)")
		}
		if time.Now().After(deadline) {
			var have, want uint64
			if r != nil {
				have = r.Epoch
			}
			if c != nil {
				want = c.Epoch
			}
			return nil, ing.ReplCursor(), fmt.Errorf("ingest: no consistent replication state (full-rank epoch %d, cursor epoch %d)", have, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// PushTol returns the incremental-ranking settle tolerance (0 = push
// path disabled). The replication leader ships it to followers so their
// push replay settles to the same tolerance and stays bit-identical.
func (ing *Ingester) PushTol() float64 { return ing.cfg.PushTol }

// ImpactConfig returns the (defaults-resolved) indicator configuration.
// The replication leader ships it to followers so their per-epoch impact
// recompute uses identical parameters and stays bit-identical.
func (ing *Ingester) ImpactConfig() impact.Config { return ing.cfg.Impact }

// ReadWALAt copies durable log bytes from generation gen at offset off
// into p. It returns io.EOF when off is the current durable end (poll
// again later) and ErrWALRotated when gen is no longer the live
// generation. Reads hold the ingester lock, so callers should size p in
// modest chunks (the replication leader uses 64 KiB).
func (ing *Ingester) ReadWALAt(gen uint64, off int64, p []byte) (int, error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.closed {
		return 0, fmt.Errorf("ingest: closed")
	}
	if gen != ing.wal.Gen() {
		return 0, ErrWALRotated
	}
	return ing.wal.ReadAt(p, off)
}
