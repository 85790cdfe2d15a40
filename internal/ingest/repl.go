package ingest

import (
	"errors"
	"fmt"

	"attrank/internal/impact"
)

// This file is the ingester's replication surface: the WAL doubles as a
// replication log (see internal/replication and DESIGN.md §12). A
// leader's followers consume it through three primitives —
//
//   - ReplCursor: where the log stands (identity, generation, the byte
//     offset of the last committed epoch boundary, and that epoch).
//   - ReplState: a bootstrap-consistent (Ranking, ReplCursor) pair, so
//     a follower can seed its corpus and vectors and know the exact
//     offset to stream from.
//   - ReplEpochs: the published epochs whose vectors a stream ships,
//     each with the cursor after its marker, and a publication wakeup.
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

// ReplEpoch is a published epoch and the replication cursor right
// after its marker: a follower's stream may carry the epoch's vectors
// once it has shipped the log up to Cursor.Offset of Cursor.Gen.
type ReplEpoch struct {
	Ranking *Ranking
	Cursor  ReplCursor
}

// ReplState returns the last FULL (exact-rank) ranking together with
// the cursor that matches it: the cursor's epoch equals the ranking's
// epoch and its offset points right after that epoch's marker, so a
// follower seeded from this pair streams from exactly the offset where
// its state ends. Bootstrap is anchored at full boundaries on purpose:
// a push epoch is built on its full epoch, whose attention, recency and
// indicators the follower must hold first.
func (ing *Ingester) ReplState() (*Ranking, ReplCursor, error) {
	a := ing.anchor.Load()
	if a == nil {
		return nil, ing.ReplCursor(), fmt.Errorf("ingest: no ranking published yet (corpus empty)")
	}
	return a.Ranking, a.Cursor, nil
}

// ReplEpochs returns what a follower's stream may ship: the last full
// epoch and the newest published epoch (the same one unless push
// epochs followed it), each nil before the first, and a channel that
// is closed at the next publication. The channel is taken before the
// epochs are read, so a caller that finds nothing new and waits on it
// misses no publication.
func (ing *Ingester) ReplEpochs() (full, latest *ReplEpoch, next <-chan struct{}) {
	next = *ing.pubWake.Load()
	return ing.anchor.Load(), ing.latest.Load(), next
}

// publish makes e the newest published epoch and wakes every waiter
// of ReplEpochs.
func (ing *Ingester) publish(e *ReplEpoch) {
	ing.latest.Store(e)
	wake := make(chan struct{})
	close(*ing.pubWake.Swap(&wake))
}

// ImpactConfig returns the (defaults-resolved) indicator configuration.
// The replication leader ships it to followers, which derive each
// epoch's classes from the shipped vectors with identical parameters.
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
