// Package graph implements the citation-network substrate of the paper: a
// directed graph whose nodes are papers and whose edge p→q means "p cites
// q", annotated with publication years and optional author/venue metadata.
//
// A Network is immutable once built (see Builder). The temporal operations
// needed by the evaluation protocol — restricting to the state C(t) of the
// network at a time t, and counting citations made inside a window
// C[t−y : t] — are provided as methods.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// NoVenue marks a paper without venue metadata.
const NoVenue int32 = -1

// Paper is the metadata of a single publication. References live in the
// Network adjacency, not here.
type Paper struct {
	// ID is the external identifier (dataset key), unique per network.
	ID string
	// Year is the publication time t_p. The paper's model only needs a
	// totally ordered integer time; all four datasets use years.
	Year int
	// Authors are indices into the network's author table; may be empty.
	Authors []int32
	// Venue is an index into the venue table, or NoVenue.
	Venue int32
}

// Network is an immutable citation network. Node indices are dense int32
// in [0, N).
type Network struct {
	papers []Paper
	// ID → node in two levels, so that a spliced build need not re-hash
	// every ID: idx is shared with the network this one was spliced from,
	// and newIDs holds the IDs added since, until they outgrow
	// len(idx)/newIDsFold and are folded into a fresh idx (see Build).
	idx    map[string]int32
	newIDs map[string]int32

	// CSR out-adjacency: refs[refPtr[i]:refPtr[i+1]] are the papers cited
	// by paper i (its reference list).
	refPtr []int32
	refs   []int32

	// CSR in-adjacency: citers[citPtr[i]:citPtr[i+1]] are the papers that
	// cite paper i, sorted by the citing paper's year (ascending) so that
	// windowed citation counts are a binary search away.
	citPtr []int32
	citers []int32

	authors []string // author table; may be empty
	venues  []string // venue table; may be empty

	minYear, maxYear int

	// compiled is the network's one derived value (see Compiled). It is
	// a pointer, set by Build, so a Network value stays copyable and a
	// spliced successor starts with a memo of its own.
	compiled *memo
}

// memo holds one lazily built value.
type memo struct {
	once sync.Once
	v    any
}

// Compiled returns the value build produced on the first call for this
// network, calling build exactly once however many goroutines ask. The
// network holds the value for as long as it lives; a successor spliced
// from it (NewBuilderFrom) starts empty. The ranking layer keeps its
// compiled operator here (core.OperatorFor), so every caller ranking one
// network shares one operator, and a retired epoch's operator goes with
// its network. Every call on one network must pass a build that returns
// the same kind of value.
func (n *Network) Compiled(build func() any) any {
	n.compiled.once.Do(func() { n.compiled.v = build() })
	return n.compiled.v
}

// N returns the number of papers.
func (n *Network) N() int { return len(n.papers) }

// Paper returns the metadata of node i.
func (n *Network) Paper(i int32) Paper { return n.papers[i] }

// Year returns the publication year of node i.
func (n *Network) Year(i int32) int { return n.papers[i].Year }

// Lookup resolves an external ID to a node index.
func (n *Network) Lookup(id string) (int32, bool) {
	if i, ok := n.idx[id]; ok {
		return i, true
	}
	i, ok := n.newIDs[id]
	return i, ok
}

// MinYear returns the earliest publication year in the network.
func (n *Network) MinYear() int { return n.minYear }

// MaxYear returns the latest publication year in the network; this is the
// "current time" t_N when the whole network is the current state.
func (n *Network) MaxYear() int { return n.maxYear }

// Edges returns the total number of citation edges.
func (n *Network) Edges() int { return len(n.refs) }

// NumAuthors returns the size of the author table.
func (n *Network) NumAuthors() int { return len(n.authors) }

// AuthorName returns the name of author a, or "" if out of range.
func (n *Network) AuthorName(a int32) string {
	if a < 0 || int(a) >= len(n.authors) {
		return ""
	}
	return n.authors[a]
}

// NumVenues returns the size of the venue table.
func (n *Network) NumVenues() int { return len(n.venues) }

// VenueName returns the name of venue v, or "" if v is NoVenue or out of
// range.
func (n *Network) VenueName(v int32) string {
	if v < 0 || int(v) >= len(n.venues) {
		return ""
	}
	return n.venues[v]
}

// References calls fn for every paper cited by node i.
func (n *Network) References(i int32, fn func(ref int32)) {
	for k := n.refPtr[i]; k < n.refPtr[i+1]; k++ {
		fn(n.refs[k])
	}
}

// OutDegree returns the number of references of node i (k_i in the paper).
func (n *Network) OutDegree(i int32) int { return int(n.refPtr[i+1] - n.refPtr[i]) }

// Citers calls fn for every paper citing node i, in ascending order of the
// citing paper's year.
func (n *Network) Citers(i int32, fn func(citer int32)) {
	for k := n.citPtr[i]; k < n.citPtr[i+1]; k++ {
		fn(n.citers[k])
	}
}

// InDegree returns the citation count CC(i) of node i.
func (n *Network) InDegree(i int32) int { return int(n.citPtr[i+1] - n.citPtr[i]) }

// Degree returns the undirected degree of node i: references plus
// citations. Together with Neighbors it exposes the symmetrized
// adjacency sparse.RCMOrder consumes; production compile no longer
// runs RCM, so only the benchmark's kernel replay calls it.
func (n *Network) Degree(i int32) int {
	return int(n.refPtr[i+1] - n.refPtr[i] + n.citPtr[i+1] - n.citPtr[i])
}

// Neighbors calls fn for every node adjacent to i in the undirected
// sense: first the papers i cites, then the papers citing i. A node
// connected both ways is reported twice; consumers that need a set must
// deduplicate (BFS-style visitors get this for free via their visited
// marks).
func (n *Network) Neighbors(i int32, fn func(j int32)) {
	for k := n.refPtr[i]; k < n.refPtr[i+1]; k++ {
		fn(n.refs[k])
	}
	for k := n.citPtr[i]; k < n.citPtr[i+1]; k++ {
		fn(n.citers[k])
	}
}

// HasEdge reports whether the citation citing→cited exists. Reference
// lists are sorted by cited index (Build orders edges by (citing, cited)),
// so this is a binary search over the citing paper's references.
func (n *Network) HasEdge(citing, cited int32) bool {
	seg := n.refs[n.refPtr[citing]:n.refPtr[citing+1]]
	k := sort.Search(len(seg), func(i int) bool { return seg[i] >= cited })
	return k < len(seg) && seg[k] == cited
}

// CitationsIn returns the number of citations node i received from papers
// published in years [from, to], inclusive. Citations are attributed to
// the publication year of the citing paper, as in the paper's definition
// of the attention window C[tN−y : tN].
func (n *Network) CitationsIn(i int32, from, to int) int {
	lo, hi := n.citPtr[i], n.citPtr[i+1]
	seg := n.citers[lo:hi]
	// seg is sorted by citer year; locate the [from, to] slice.
	a := sort.Search(len(seg), func(k int) bool { return n.papers[seg[k]].Year >= from })
	b := sort.Search(len(seg), func(k int) bool { return n.papers[seg[k]].Year > to })
	return b - a
}

// WindowCitations returns, for every paper, the number of citations it
// received from papers published in years [from, to]: CitationsIn for
// all papers at once, counted in one pass over the reference lists of
// the papers published in the window.
func (n *Network) WindowCitations(from, to int) []int32 {
	counts := make([]int32, len(n.papers))
	for i := range n.papers {
		if y := n.papers[i].Year; y < from || y > to {
			continue
		}
		for _, ref := range n.refs[n.refPtr[i]:n.refPtr[i+1]] {
			counts[ref]++
		}
	}
	return counts
}

// YearlyCitations returns, for node i, a map year → citations received
// from papers published that year.
func (n *Network) YearlyCitations(i int32) map[int]int {
	out := make(map[int]int)
	n.Citers(i, func(c int32) { out[n.papers[c].Year]++ })
	return out
}

// PapersByTime returns all node indices ordered by (year, node index)
// ascending — the order used for temporal splits.
func (n *Network) PapersByTime() []int32 {
	order := make([]int32, n.N())
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := n.papers[order[a]], n.papers[order[b]]
		if pa.Year != pb.Year {
			return pa.Year < pb.Year
		}
		return order[a] < order[b]
	})
	return order
}

// Until returns the sub-network C(t): papers with Year ≤ t and the
// citations among them, along with a mapping from new node indices to the
// original ones. Metadata tables are shared with the parent.
func (n *Network) Until(t int) (*Network, []int32) {
	return n.Filter(func(_ int32, p Paper) bool { return p.Year <= t })
}

// Filter returns the induced sub-network of the papers the predicate
// keeps (citations survive when both endpoints do), along with a mapping
// from new node indices to the original ones. Metadata tables are shared
// with the parent. Useful for venue-, author- or time-restricted views.
func (n *Network) Filter(keepFn func(i int32, p Paper) bool) (*Network, []int32) {
	keep := make([]int32, 0, n.N())
	old2new := make([]int32, n.N())
	for i := range old2new {
		old2new[i] = -1
	}
	for i := int32(0); int(i) < n.N(); i++ {
		if keepFn(i, n.papers[i]) {
			old2new[i] = int32(len(keep))
			keep = append(keep, i)
		}
	}
	b := NewBuilder()
	b.authors, b.venues = slices.Clip(n.authors), slices.Clip(n.venues)
	for _, old := range keep {
		p := n.papers[old]
		if err := b.AddPaperIndexed(p.ID, p.Year, p.Authors, p.Venue); err != nil {
			// Cannot happen: IDs were unique in the parent network.
			panic(fmt.Sprintf("graph: Filter rebuild: %v", err))
		}
	}
	for _, old := range keep {
		n.References(old, func(ref int32) {
			if old2new[ref] >= 0 {
				b.AddEdgeByIndex(old2new[old], old2new[ref])
			}
		})
	}
	sub, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: Filter rebuild: %v", err))
	}
	return sub, keep
}

// Validate checks structural invariants: sorted citer lists, strictly
// ascending reference lists (HasEdge and CitationMatrix rely on them),
// matching edge counts, and in-bounds indices. It is O(V+E) and used by
// tests and the data loaders.
func (n *Network) Validate() error {
	if len(n.refPtr) != n.N()+1 || len(n.citPtr) != n.N()+1 {
		return fmt.Errorf("graph: pointer array length mismatch")
	}
	if len(n.refs) != len(n.citers) {
		return fmt.Errorf("graph: out-edge count %d != in-edge count %d", len(n.refs), len(n.citers))
	}
	for i := int32(0); int(i) < n.N(); i++ {
		prevYear := -1 << 30
		for k := n.citPtr[i]; k < n.citPtr[i+1]; k++ {
			c := n.citers[k]
			if c < 0 || int(c) >= n.N() {
				return fmt.Errorf("graph: citer index %d out of range for node %d", c, i)
			}
			if y := n.papers[c].Year; y < prevYear {
				return fmt.Errorf("graph: citers of node %d not sorted by year", i)
			} else {
				prevYear = y
			}
		}
		prevRef := int32(-1)
		for k := n.refPtr[i]; k < n.refPtr[i+1]; k++ {
			r := n.refs[k]
			if r < 0 || int(r) >= n.N() {
				return fmt.Errorf("graph: reference index %d out of range for node %d", r, i)
			}
			if r <= prevRef {
				return fmt.Errorf("graph: references of node %d not strictly ascending", i)
			}
			prevRef = r
		}
	}
	return nil
}
