package graph

import "fmt"

// Overlay is a mutable out-adjacency view over an immutable base Network
// plus an uncompacted fringe of extra citation edges that have been
// accepted by the ingester but not yet compacted by NewBuilderFrom +
// Build. It implements sparse.PushGraph, giving the incremental-ranking
// push kernel (DESIGN.md §14) the current graph without paying a
// compaction per write.
//
// The overlay adds no papers — a batch with a new paper takes the full
// path — so node indices are the base's, which the eventual compaction
// keeps (NewBuilderFrom appends, never renumbers). Reference iteration
// order is deterministic — base references first (CSR order), then
// fringe edges in arrival order — which the replication follower relies
// on to replay pushes bit-for-bit.
//
// An Overlay is not safe for concurrent use; like the Pusher that owns
// it, it lives on the ingest scheduler goroutine.
type Overlay struct {
	base  *Network
	extra map[int32][]int32 // per-node fringe references, arrival order
}

// NewOverlay starts an empty fringe over base.
func NewOverlay(base *Network) *Overlay {
	return &Overlay{base: base, extra: make(map[int32][]int32)}
}

// N returns the node count (the base's: the fringe holds edges only).
func (o *Overlay) N() int { return o.base.N() }

// Year returns the publication year of node i.
func (o *Overlay) Year(i int32) int { return o.base.Year(i) }

// OutDegree returns node i's reference count, fringe included.
func (o *Overlay) OutDegree(i int32) int { return o.base.OutDegree(i) + len(o.extra[i]) }

// References calls fn for every reference of node i: the base CSR
// segment first, then fringe edges in arrival order.
func (o *Overlay) References(i int32, fn func(ref int32)) {
	o.base.References(i, fn)
	for _, ref := range o.extra[i] {
		fn(ref)
	}
}

// HasEdge reports whether citing→cited exists in the base or the fringe.
func (o *Overlay) HasEdge(citing, cited int32) bool {
	if o.base.HasEdge(citing, cited) {
		return true
	}
	for _, ref := range o.extra[citing] {
		if ref == cited {
			return true
		}
	}
	return false
}

// AddEdge appends a fringe edge citing→cited. Self-citations, duplicate
// edges and out-of-range endpoints are rejected — the same rules
// Builder.Build enforces, so an accepted fringe always compacts cleanly.
func (o *Overlay) AddEdge(citing, cited int32) error {
	n := int32(o.N())
	if citing < 0 || citing >= n || cited < 0 || cited >= n {
		return fmt.Errorf("graph: overlay edge %d→%d out of range [0,%d)", citing, cited, n)
	}
	if citing == cited {
		return fmt.Errorf("graph: overlay self-citation at node %d", citing)
	}
	if o.HasEdge(citing, cited) {
		return fmt.Errorf("graph: overlay duplicate edge %d→%d", citing, cited)
	}
	o.extra[citing] = append(o.extra[citing], cited)
	return nil
}
