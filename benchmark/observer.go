package main

import (
	"sort"
	"sync/atomic"
	"time"

	"attrank/internal/ingest"
	"attrank/internal/replication"
)

// pollEvery is how often the observer looks at the published rankings.
const pollEvery = time.Millisecond

// epochEvent is one published epoch as the observer first saw it.
type epochEvent struct {
	epoch       uint64
	at          time.Time // the first poll that saw it
	edges       int       // Stats.Edges of the published ranking
	incremental bool
	rerank      time.Duration // leader only: Status().LastRerank
	iterations  int           // leader only: Status().LastIterations
}

// edgePoint records the follower's served edge count from time at on.
type edgePoint struct {
	at    time.Time
	edges int
}

// observer polls the leader's and the follower's published rankings. A
// write is visible once the follower serves its edge, so the follower's
// edge count over time is what write visibility is computed from; the
// epoch events become spans in a traced run. Both run the same observer,
// so tracing adds no polling of its own.
type observer struct {
	ing *ingest.Ingester
	fol *replication.Follower

	edgesNow atomic.Int64 // latest follower edge count seen
	stopCh   chan struct{}
	done     chan struct{}

	// Owned by the polling goroutine until stop returns.
	history  []edgePoint
	leader   []epochEvent
	follower []epochEvent
}

func startObserver(ing *ingest.Ingester, fol *replication.Follower) *observer {
	o := &observer{ing: ing, fol: fol, stopCh: make(chan struct{}), done: make(chan struct{})}
	o.poll(time.Now())
	go o.run()
	return o
}

func (o *observer) run() {
	defer close(o.done)
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case <-o.stopCh:
			return
		case now := <-tick.C:
			o.poll(now)
		}
	}
}

func (o *observer) poll(now time.Time) {
	if r := o.ing.Ranking(); len(o.leader) == 0 || r.Epoch != o.leader[len(o.leader)-1].epoch {
		st := o.ing.Status()
		o.leader = append(o.leader, epochEvent{epoch: r.Epoch, at: now, edges: r.Stats.Edges,
			incremental: r.Incremental, rerank: st.LastRerank, iterations: st.LastIterations})
	}
	if r := o.fol.Ranking(); len(o.follower) == 0 || r.Epoch != o.follower[len(o.follower)-1].epoch {
		o.follower = append(o.follower, epochEvent{epoch: r.Epoch, at: now, edges: r.Stats.Edges, incremental: r.Incremental})
		if len(o.history) == 0 || r.Stats.Edges != o.history[len(o.history)-1].edges {
			o.history = append(o.history, edgePoint{at: now, edges: r.Stats.Edges})
		}
		o.edgesNow.Store(int64(r.Stats.Edges))
	}
}

// waitEdges waits until the follower has been seen serving at least
// edges edges, or the timeout expires.
func (o *observer) waitEdges(edges int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for o.edgesNow.Load() < int64(edges) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pollEvery)
	}
	return true
}

// stop ends polling and waits for the polling goroutine to exit.
func (o *observer) stop() {
	close(o.stopCh)
	<-o.done
}

// visibleAt returns the first time the follower was seen serving at
// least edges edges.
func visibleAt(history []edgePoint, edges int) (time.Time, bool) {
	i := sort.Search(len(history), func(i int) bool { return history[i].edges >= edges })
	if i == len(history) {
		return time.Time{}, false
	}
	return history[i].at, true
}
