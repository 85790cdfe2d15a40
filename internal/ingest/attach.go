package ingest

import (
	"time"

	"attrank/internal/impact"
)

// A full epoch is published as soon as its AttRank solve is done,
// carrying the previous full epoch's indicators; its own are computed
// afterwards, off the publication path, and attached to the same epoch
// (DESIGN.md §7, §15). The loop runs at most one such computation at a
// time. A result whose epoch a later full epoch has superseded is
// dropped, and the newest epoch's computation starts next.

// attachJob is the indicator computation for full epoch r, running off
// the loop goroutine; done is closed once ind and err are set.
type attachJob struct {
	r         *Ranking
	published time.Time
	ind       *impact.Epoch
	err       error
	done      chan struct{}
}

// indicatorsFor returns how an ingester under cfg computes a full
// epoch's indicators on at most workers cores. A variable, so tests can
// gate the computation.
var indicatorsFor = func(cfg impact.Config) func(*Ranking, int) (*impact.Epoch, error) {
	return func(r *Ranking, workers int) (*impact.Epoch, error) { return Indicators(r, cfg, workers) }
}

// attachDone is the in-flight job's completion channel, nil (never
// ready) when no job runs.
func (ing *Ingester) attachDone() <-chan struct{} {
	if ing.job == nil {
		return nil
	}
	return ing.job.done
}

// startAttach starts the indicator computation of the last full epoch,
// unless indicators are off, a computation is in flight, or that epoch
// had one. It runs on one core, leaving the others to ranking and
// replication.
func (ing *Ingester) startAttach() {
	last := ing.chain.Last()
	if !ing.cfg.Impact.Enabled || ing.job != nil || last == nil || last.Epoch <= ing.tried {
		return
	}
	ing.tried = last.Epoch
	j := &attachJob{r: last, published: ing.fullAt, done: make(chan struct{})}
	ing.job = j
	go func() {
		j.ind, j.err = ing.indicators(j.r, 1)
		close(j.done)
	}()
}

// finishAttach waits for the job in flight and attaches its result.
func (ing *Ingester) finishAttach() {
	j := ing.job
	<-j.done
	ing.job = nil
	ing.attach(j)
}

// attachNow attaches the last full epoch's indicators before it
// returns, computing them here on every core unless a job already did:
// Open's first epoch and Flush promise a view with its own indicators.
func (ing *Ingester) attachNow() {
	if ing.job != nil {
		ing.finishAttach()
	}
	last := ing.chain.Last()
	if !ing.cfg.Impact.Enabled || last == nil || last.Epoch <= ing.tried {
		return
	}
	ing.tried = last.Epoch
	j := &attachJob{r: last, published: ing.fullAt}
	j.ind, j.err = ing.indicators(last, -1)
	ing.attach(j)
}

// attach sets j's indicators on its epoch and republishes the newest
// view built on that epoch — the epoch itself or a push epoch after it
// — with them, under the lock that orders publications against
// snapshots re-anchoring the bootstrap. A failed computation keeps the
// carried indicators; a superseded one is dropped.
func (ing *Ingester) attach(j *attachJob) {
	if j.err != nil {
		ing.logf("impact: epoch %d indicators skipped: %v", j.r.Epoch, j.err)
		return
	}
	full, ok := ing.chain.Attach(j.r.Epoch, j.ind)
	if !ok {
		ImpactAttachSuperseded.With("leader").Inc()
		return
	}
	ing.mu.Lock()
	if a := ing.anchor.Load(); a != nil && a.Ranking.Epoch == full.Epoch {
		ing.anchor.Store(&ReplEpoch{full, a.Cursor})
	}
	latest := ing.latest.Load()
	v := full
	if latest.Ranking.Epoch != full.Epoch {
		v = latest.Ranking.WithIndicators(full.Impact, full.ImpactEpoch)
	}
	ing.publish(&ReplEpoch{v, latest.Cursor})
	ing.mu.Unlock()
	ImpactAttachSeconds.With("leader").ObserveSince(j.published)
}
