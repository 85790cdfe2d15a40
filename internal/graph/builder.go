package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates papers and citation edges and assembles an immutable
// Network. The zero value is not ready; use NewBuilder.
//
// Edges may be added by external ID (AddEdge) before or after both
// endpoints exist; unresolved endpoints are reported by Build. Duplicate
// edges are collapsed (the citation matrix is 0/1 in the paper).
type Builder struct {
	papers      []Paper
	idx         map[string]int32
	edges       [][2]int32 // (citing, cited) by node index
	pending     [][2]string
	authors     []string
	authorIdx   map[string]int32
	venues      []string
	venueIdx    map[string]int32
	shareTables bool // author/venue tables injected from a parent network
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		idx:       make(map[string]int32),
		authorIdx: make(map[string]int32),
		venueIdx:  make(map[string]int32),
	}
}

// NewBuilderFrom returns a Builder pre-loaded with every paper, edge and
// metadata entry of net, ready to accept additional papers and citations.
// Existing papers keep their node indices (base papers come first, in
// order), and base authors/venues are not re-interned: the tables are
// copied once and extended in place, so growing a million-paper network
// by a handful of papers costs O(V+E) copying but no string hashing of
// the base corpus. This is the compaction path of the live-ingestion
// subsystem (internal/ingest).
func NewBuilderFrom(net *Network) *Builder {
	b := &Builder{
		papers:    make([]Paper, len(net.papers)),
		idx:       make(map[string]int32, len(net.papers)),
		edges:     make([][2]int32, 0, len(net.refs)),
		authors:   append([]string(nil), net.authors...),
		authorIdx: make(map[string]int32, len(net.authors)),
		venues:    append([]string(nil), net.venues...),
		venueIdx:  make(map[string]int32, len(net.venues)),
	}
	copy(b.papers, net.papers)
	for i := range b.papers {
		b.idx[b.papers[i].ID] = int32(i)
	}
	for i, name := range b.authors {
		b.authorIdx[name] = int32(i)
	}
	for i, name := range b.venues {
		b.venueIdx[name] = int32(i)
	}
	for i := int32(0); int(i) < net.N(); i++ {
		net.References(i, func(ref int32) {
			b.edges = append(b.edges, [2]int32{i, ref})
		})
	}
	return b
}

// AddPaper registers a paper with named authors and venue ("" for none).
// It returns the node index, or an error for a duplicate ID.
func (b *Builder) AddPaper(id string, year int, authorNames []string, venueName string) (int32, error) {
	if b.shareTables {
		return -1, fmt.Errorf("graph: AddPaper on a builder with shared metadata tables; use AddPaperIndexed")
	}
	var authors []int32
	for _, name := range authorNames {
		authors = append(authors, b.internAuthor(name))
	}
	venue := NoVenue
	if venueName != "" {
		venue = b.internVenue(venueName)
	}
	if err := b.AddPaperIndexed(id, year, authors, venue); err != nil {
		return -1, err
	}
	return int32(len(b.papers) - 1), nil
}

// AddPaperIndexed registers a paper whose author/venue indices are already
// resolved against the builder's tables.
func (b *Builder) AddPaperIndexed(id string, year int, authors []int32, venue int32) error {
	if id == "" {
		return fmt.Errorf("graph: empty paper ID")
	}
	if _, dup := b.idx[id]; dup {
		return fmt.Errorf("graph: duplicate paper ID %q", id)
	}
	b.idx[id] = int32(len(b.papers))
	b.papers = append(b.papers, Paper{ID: id, Year: year, Authors: authors, Venue: venue})
	return nil
}

func (b *Builder) internAuthor(name string) int32 {
	if i, ok := b.authorIdx[name]; ok {
		return i
	}
	i := int32(len(b.authors))
	b.authors = append(b.authors, name)
	b.authorIdx[name] = i
	return i
}

func (b *Builder) internVenue(name string) int32 {
	if i, ok := b.venueIdx[name]; ok {
		return i
	}
	i := int32(len(b.venues))
	b.venues = append(b.venues, name)
	b.venueIdx[name] = i
	return i
}

// AddEdge records the citation citingID → citedID by external ID. The
// papers may be added later; Build resolves pending edges.
func (b *Builder) AddEdge(citingID, citedID string) {
	ci, okc := b.idx[citingID]
	ti, okt := b.idx[citedID]
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
func (b *Builder) Build() (*Network, error) {
	for _, p := range b.pending {
		ci, okc := b.idx[p[0]]
		ti, okt := b.idx[p[1]]
		if !okc {
			return nil, fmt.Errorf("graph: edge references unknown citing paper %q", p[0])
		}
		if !okt {
			return nil, fmt.Errorf("graph: edge references unknown cited paper %q", p[1])
		}
		b.edges = append(b.edges, [2]int32{ci, ti})
	}
	b.pending = nil

	n := int32(len(b.papers))
	for _, e := range b.edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d papers", e[0], e[1], n)
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("graph: self-citation on paper %q", b.papers[e[0]].ID)
		}
	}

	// Deduplicate edges: sort by (citing, cited) and skip repeats.
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	dedup := b.edges[:0]
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	b.edges = dedup

	net := &Network{
		papers:  b.papers,
		idx:     b.idx,
		authors: b.authors,
		venues:  b.venues,
	}
	if len(b.papers) > 0 {
		net.minYear = b.papers[0].Year
		net.maxYear = b.papers[0].Year
		for _, p := range b.papers {
			if p.Year < net.minYear {
				net.minYear = p.Year
			}
			if p.Year > net.maxYear {
				net.maxYear = p.Year
			}
		}
	}

	// Out-adjacency (reference lists), already grouped by citing paper.
	net.refPtr = make([]int32, n+1)
	net.refs = make([]int32, len(b.edges))
	for _, e := range b.edges {
		net.refPtr[e[0]+1]++
	}
	for i := int32(0); i < n; i++ {
		net.refPtr[i+1] += net.refPtr[i]
	}
	cursor := make([]int32, n)
	for _, e := range b.edges {
		net.refs[net.refPtr[e[0]]+cursor[e[0]]] = e[1]
		cursor[e[0]]++
	}

	// In-adjacency, citers sorted by (year, index) per cited paper.
	net.citPtr = make([]int32, n+1)
	for _, e := range b.edges {
		net.citPtr[e[1]+1]++
	}
	for i := int32(0); i < n; i++ {
		net.citPtr[i+1] += net.citPtr[i]
	}
	net.citers = make([]int32, len(b.edges))
	for i := range cursor {
		cursor[i] = 0
	}
	for _, e := range b.edges {
		net.citers[net.citPtr[e[1]]+cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	for i := int32(0); i < n; i++ {
		seg := net.citers[net.citPtr[i]:net.citPtr[i+1]]
		sort.Slice(seg, func(a, b int) bool {
			ya, yb := net.papers[seg[a]].Year, net.papers[seg[b]].Year
			if ya != yb {
				return ya < yb
			}
			return seg[a] < seg[b]
		})
	}
	return net, nil
}
