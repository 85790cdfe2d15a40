package core

import (
	"fmt"
	"slices"

	"attrank/internal/graph"
)

// Tracker maintains AttRank scores over a growing citation corpus — the
// production pattern for a scholarly search engine that re-ranks after
// each ingestion batch (e.g. yearly). Each Update warm-starts the power
// iteration from the previous scores, matched by paper ID, so the
// iteration converges in a fraction of the cold-start iterations while
// reaching the same fixed point (the fixed point of Eq. 4 is independent
// of the starting vector).
//
// The previous scores are carried by index, next to the network they
// were computed on: a paper that kept its index (every paper of a
// network grown by graph.NewBuilderFrom) is matched by comparing one ID,
// and only a paper that moved is looked up in the previous network's ID
// index. The match is by ID either way.
type Tracker struct {
	params Params
	// prev is the network of the previous Update (or Seed), and last
	// its scores, indexed like prev; both nil before the first.
	prev *graph.Network
	last []float64
}

// NewTracker validates the parameters (Start must be unset; the tracker
// owns warm starting) and returns an empty tracker.
func NewTracker(p Params) (*Tracker, error) {
	if p.Start != nil {
		return nil, fmt.Errorf("core: tracker manages warm starts itself; Params.Start must be nil")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{params: p}, nil
}

// Params returns the tracker's configuration.
func (t *Tracker) Params() Params { return t.params }

// Seed primes the warm-start state from externally computed scores, as
// if the previous Update had produced them. This is how a replication
// follower joins a leader's warm-start chain mid-stream: seeded with
// the leader's published scores for the same network, every subsequent
// Update starts from the same vector the leader's does and therefore
// reproduces the leader's results bit for bit. The tracker keeps a
// copy of scores.
// A length mismatch — scores from a different (e.g. pre-compaction)
// vertex count — clears the carried state before erroring: the stale
// vector must not silently warm-start the next Update, which instead
// re-seeds itself from its own exact result.
func (t *Tracker) Seed(net *graph.Network, scores []float64) error {
	if net.N() != len(scores) {
		t.prev, t.last = nil, nil
		return fmt.Errorf("core: tracker seed: %d scores for %d papers", len(scores), net.N())
	}
	t.prev, t.last = net, slices.Clone(scores)
	return nil
}

// Update ranks the network's state at time now, warm-starting from the
// previous update where paper IDs overlap. Papers unseen before start at
// the mean of the carried-over mass (or uniform on the first call).
func (t *Tracker) Update(net *graph.Network, now int) (*Result, error) {
	p := t.params
	if len(t.last) > 0 && net.N() > 0 {
		start := make([]float64, net.N())
		carried, hits := 0.0, 0
		for i := int32(0); int(i) < net.N(); i++ {
			id := net.Paper(i).ID
			j, ok := i, int(i) < t.prev.N() && t.prev.Paper(i).ID == id
			if !ok {
				j, ok = t.prev.Lookup(id)
			}
			if ok {
				v := t.last[j]
				start[i] = v
				carried += v
				hits++
			}
		}
		fill := 1.0 / float64(net.N())
		if hits > 0 {
			fill = carried / float64(hits)
		}
		for i := range start {
			if start[i] == 0 {
				start[i] = fill
			}
		}
		p.Start = start
	}
	res, err := Rank(net, now, p)
	if err != nil {
		return nil, err
	}
	t.prev, t.last = net, slices.Clone(res.Scores)
	return res, nil
}
