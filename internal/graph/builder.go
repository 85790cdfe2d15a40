package graph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
)

// Builder accumulates papers and citation edges on top of a base network
// (empty for NewBuilder) and assembles an immutable Network. The zero
// value is not ready; use NewBuilder or NewBuilderFrom.
//
// Base papers keep their node indices and added papers follow them in
// order. Edges may be added by external ID (AddEdge) before or after
// both endpoints exist; unresolved endpoints are reported by Build.
// Duplicate edges, among the added ones or against the base's, are
// collapsed (the citation matrix is 0/1 in the paper).
type Builder struct {
	base    *Network         // read-only; never copied until Build
	papers  []Paper          // added papers: papers[i] gets index base.N()+i
	idx     map[string]int32 // added papers' ID → node
	edges   [][2]int32       // added (citing, cited) edges by node index
	pending [][2]string

	// The author and venue tables start as the base's, shared: the
	// slices are capacity-clipped so interning a new name copies them,
	// and the name → index maps are built on first intern.
	authors   []string
	authorIdx map[string]int32
	venues    []string
	venueIdx  map[string]int32
}

// newIDsFold bounds a network's newIDs map at 1/newIDsFold of its idx
// map, so a run of splices clones at most that many IDs each and folds
// them into a fresh idx once per that many additions.
const newIDsFold = 8

// emptyNetwork is the base of every NewBuilder.
var emptyNetwork = &Network{refPtr: []int32{0}, citPtr: []int32{0}, compiled: new(memo)}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return NewBuilderFrom(emptyNetwork) }

// NewBuilderFrom returns a Builder that extends net, ready to accept
// additional papers and citations. Existing papers keep their node
// indices (base papers come first, in order), and base authors/venues
// are not re-interned. The builder only references net: Build copies
// net's arrays once and splices the additions into them, so growing a
// large network by a handful of papers costs a few array copies, with
// no sort or string hashing of the base corpus. This is the compaction
// path of the live-ingestion subsystem (internal/ingest).
func NewBuilderFrom(net *Network) *Builder {
	return &Builder{
		base:    net,
		idx:     make(map[string]int32),
		authors: slices.Clip(net.authors),
		venues:  slices.Clip(net.venues),
	}
}

// lookup resolves an external ID among the base's and the added papers.
func (b *Builder) lookup(id string) (int32, bool) {
	if i, ok := b.base.Lookup(id); ok {
		return i, true
	}
	i, ok := b.idx[id]
	return i, ok
}

// AddPaper registers a paper with named authors and venue ("" for none).
// It returns the node index, or an error for a duplicate ID.
func (b *Builder) AddPaper(id string, year int, authorNames []string, venueName string) (int32, error) {
	var authors []int32
	for _, name := range authorNames {
		authors = append(authors, intern(&b.authors, &b.authorIdx, name))
	}
	venue := NoVenue
	if venueName != "" {
		venue = intern(&b.venues, &b.venueIdx, venueName)
	}
	if err := b.AddPaperIndexed(id, year, authors, venue); err != nil {
		return -1, err
	}
	return int32(b.base.N() + len(b.papers) - 1), nil
}

// AddPaperIndexed registers a paper whose author/venue indices are already
// resolved against the builder's tables.
func (b *Builder) AddPaperIndexed(id string, year int, authors []int32, venue int32) error {
	if id == "" {
		return fmt.Errorf("graph: empty paper ID")
	}
	if _, dup := b.lookup(id); dup {
		return fmt.Errorf("graph: duplicate paper ID %q", id)
	}
	b.idx[id] = int32(b.base.N() + len(b.papers))
	b.papers = append(b.papers, Paper{ID: id, Year: year, Authors: authors, Venue: venue})
	return nil
}

// intern returns name's index in *table, appending it if new. The index
// map is built from the table on first use.
func intern(table *[]string, index *map[string]int32, name string) int32 {
	if *index == nil {
		*index = make(map[string]int32, len(*table))
		for i, n := range *table {
			(*index)[n] = int32(i)
		}
	}
	if i, ok := (*index)[name]; ok {
		return i
	}
	i := int32(len(*table))
	*table = append(*table, name)
	(*index)[name] = i
	return i
}

// AddEdge records the citation citingID → citedID by external ID. The
// papers may be added later; Build resolves pending edges.
func (b *Builder) AddEdge(citingID, citedID string) {
	ci, okc := b.lookup(citingID)
	ti, okt := b.lookup(citedID)
	if okc && okt {
		b.edges = append(b.edges, [2]int32{ci, ti})
		return
	}
	b.pending = append(b.pending, [2]string{citingID, citedID})
}

// AddEdgeByIndex records a citation by node index. Indices must refer to
// already-added papers.
func (b *Builder) AddEdgeByIndex(citing, cited int32) {
	b.edges = append(b.edges, [2]int32{citing, cited})
}

// Build assembles the Network. It fails on unresolved edge endpoints,
// out-of-range indices or self-citations. Duplicate edges are collapsed.
//
// Only the added edges are sorted: each base row is copied as is, and a
// row that gains edges merges them in — references in ascending cited
// index, citers in (year, index) order — so the result is the network a
// from-scratch build over the same papers and edges would give.
func (b *Builder) Build() (*Network, error) {
	for _, p := range b.pending {
		ci, okc := b.lookup(p[0])
		ti, okt := b.lookup(p[1])
		if !okc {
			return nil, fmt.Errorf("graph: edge references unknown citing paper %q", p[0])
		}
		if !okt {
			return nil, fmt.Errorf("graph: edge references unknown cited paper %q", p[1])
		}
		b.edges = append(b.edges, [2]int32{ci, ti})
	}
	b.pending = nil

	base := b.base
	nb := int32(base.N())
	papers := append(slices.Clip(base.papers), b.papers...)
	n := int32(len(papers))
	for _, e := range b.edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d papers", e[0], e[1], n)
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("graph: self-citation on paper %q", papers[e[0]].ID)
		}
	}

	// Sort the added edges by (citing, cited), skipping repeats and the
	// edges the base already holds.
	slices.SortFunc(b.edges, func(x, y [2]int32) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	})
	edges := b.edges[:0]
	for i, e := range b.edges {
		if (i > 0 && e == b.edges[i-1]) || (e[0] < nb && base.HasEdge(e[0], e[1])) {
			continue
		}
		edges = append(edges, e)
	}
	b.edges = edges

	// The base's ID map is shared, not cloned: cloning re-hashes every
	// ID, the largest cost of a small splice.
	idx, newIDs := b.idx, map[string]int32(nil)
	if nb > 0 {
		idx, newIDs = base.idx, make(map[string]int32, len(base.newIDs)+len(b.idx))
		maps.Copy(newIDs, base.newIDs)
		maps.Copy(newIDs, b.idx)
		if len(newIDs) > len(idx)/newIDsFold {
			idx = maps.Clone(idx)
			maps.Copy(idx, newIDs)
			newIDs = nil
		}
	}
	net := &Network{
		papers:   papers,
		idx:      idx,
		newIDs:   newIDs,
		authors:  b.authors,
		venues:   b.venues,
		minYear:  base.minYear,
		maxYear:  base.maxYear,
		compiled: new(memo),
	}
	if nb == 0 && n > 0 {
		net.minYear, net.maxYear = papers[0].Year, papers[0].Year
	}
	for _, p := range papers[nb:] {
		net.minYear = min(net.minYear, p.Year)
		net.maxYear = max(net.maxYear, p.Year)
	}

	// Group the added edges into CSR form by citing paper (they are
	// sorted by it already) and by cited paper (a stable counting sort,
	// so each group keeps ascending citing indices), then order each
	// citer group by the citing paper's (year, index).
	refAdd, citAdd := make([]int32, n+1), make([]int32, n+1)
	for _, e := range edges {
		refAdd[e[0]+1]++
		citAdd[e[1]+1]++
	}
	for i := int32(0); i < n; i++ {
		refAdd[i+1] += refAdd[i]
		citAdd[i+1] += citAdd[i]
	}
	refs, citers := make([]int32, len(edges)), make([]int32, len(edges))
	cursor := slices.Clone(citAdd[:n])
	for k, e := range edges {
		refs[k] = e[1]
		citers[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	for i := int32(0); i < n; i++ {
		if seg := citers[citAdd[i]:citAdd[i+1]]; len(seg) > 1 {
			slices.SortFunc(seg, func(a, b int32) int {
				if c := cmp.Compare(papers[a].Year, papers[b].Year); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		}
	}
	net.refPtr, net.refs = splice(base.refPtr, base.refs, refAdd, refs, func(a, b int32) bool { return a < b })
	net.citPtr, net.citers = splice(base.citPtr, base.citers, citAdd, citers, func(a, b int32) bool {
		ya, yb := papers[a].Year, papers[b].Year
		return ya < yb || (ya == yb && a < b)
	})
	return net, nil
}

// splice returns the CSR arrays of the base's rows (basePtr/baseVal,
// which may cover fewer rows) with the added rows (addPtr/addVal, one
// row per paper of the result) merged in: each added row must be
// ordered by less, as each base row is. A row that gains entries merges
// them into its base run; the runs of rows between such rows are
// copied from the base in one piece each.
func splice(basePtr, baseVal, addPtr, addVal []int32, less func(a, b int32) bool) (ptr, val []int32) {
	n, nb := len(addPtr)-1, len(basePtr)-1
	at := func(r int) int32 { return basePtr[min(r, nb)] }
	ptr = make([]int32, n+1)
	for r := 1; r <= n; r++ {
		ptr[r] = at(r) + addPtr[r]
	}
	val = make([]int32, len(baseVal)+len(addVal))
	row := 0 // rows before row are filled
	for r := 0; r < n; r++ {
		add := addVal[addPtr[r]:addPtr[r+1]]
		if len(add) == 0 {
			continue
		}
		// Rows [row, r) gained nothing: their base runs move up by the
		// entries added to the rows before them.
		copy(val[at(row)+addPtr[r]:], baseVal[at(row):at(r)])
		old, out := baseVal[at(r):at(r+1)], val[ptr[r]:ptr[r+1]]
		i, j := 0, 0
		for o := range out {
			if j < len(add) && (i == len(old) || less(add[j], old[i])) {
				out[o] = add[j]
				j++
			} else {
				out[o] = old[i]
				i++
			}
		}
		row = r + 1
	}
	copy(val[at(row)+addPtr[n]:], baseVal[at(row):])
	return ptr, val
}
