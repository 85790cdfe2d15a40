package dataio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"attrank/internal/graph"
)

// Binary network format ("ANB1"): a length-prefixed little-endian layout
// that loads an order of magnitude faster than TSV on multi-million-edge
// networks. Layout:
//
//	magic "ANB1"
//	u32 papers, u32 authors, u32 venues, u64 edges
//	authors: len-prefixed strings
//	venues:  len-prefixed strings
//	papers:  len-prefixed ID, i32 year, i32 venue,
//	         u16 authorCount, authorCount × u32 author
//	edges:   edges × (u32 citing, u32 cited)
const binaryMagic = "ANB1"

// WriteBinary writes the network in the binary format.
func WriteBinary(w io.Writer, net *graph.Network) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return fmt.Errorf("dataio: binary write: %w", err)
	}
	writeU32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	writeStr := func(s string) {
		writeU32(uint32(len(s)))
		bw.WriteString(s)
	}
	writeU32(uint32(net.N()))
	writeU32(uint32(net.NumAuthors()))
	writeU32(uint32(net.NumVenues()))
	binary.Write(bw, binary.LittleEndian, uint64(net.Edges()))

	for a := int32(0); int(a) < net.NumAuthors(); a++ {
		writeStr(net.AuthorName(a))
	}
	for v := int32(0); int(v) < net.NumVenues(); v++ {
		writeStr(net.VenueName(v))
	}
	for i := int32(0); int(i) < net.N(); i++ {
		p := net.Paper(i)
		writeStr(p.ID)
		binary.Write(bw, binary.LittleEndian, int32(p.Year))
		binary.Write(bw, binary.LittleEndian, p.Venue)
		binary.Write(bw, binary.LittleEndian, uint16(len(p.Authors)))
		for _, a := range p.Authors {
			writeU32(uint32(a))
		}
	}
	for i := int32(0); int(i) < net.N(); i++ {
		var err error
		net.References(i, func(ref int32) {
			if err == nil {
				if werr := binary.Write(bw, binary.LittleEndian, uint32(i)); werr != nil {
					err = werr
					return
				}
				err = binary.Write(bw, binary.LittleEndian, uint32(ref))
			}
		})
		if err != nil {
			return fmt.Errorf("dataio: binary write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dataio: binary write: %w", err)
	}
	return nil
}

// ReadBinary parses the binary network format.
func ReadBinary(r io.Reader) (*graph.Network, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dataio: binary read: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("dataio: not a binary network file (magic %q)", magic)
	}
	var papers, numAuthors, numVenues uint32
	var edges uint64
	for _, dst := range []any{&papers, &numAuthors, &numVenues, &edges} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("dataio: binary header: %w", err)
		}
	}
	const sanity = 1 << 28 // refuse absurd sizes from corrupt headers
	if papers > sanity || numAuthors > sanity || numVenues > sanity || edges > sanity {
		return nil, fmt.Errorf("dataio: binary header out of range (papers=%d authors=%d venues=%d edges=%d)",
			papers, numAuthors, numVenues, edges)
	}

	readStr := func() (string, error) {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("string length %d out of range", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	// The header's counts are claims, not data: the name tables grow as
	// names arrive, so a few corrupt header bytes cannot demand
	// gigabytes before the first read fails.
	readNames := func(what string, count uint32) ([]string, error) {
		names := make([]string, 0, min(count, 1<<12))
		for i := uint32(0); i < count; i++ {
			s, err := readStr()
			if err != nil {
				return nil, fmt.Errorf("dataio: binary %s %d: %w", what, i, err)
			}
			names = append(names, s)
		}
		return names, nil
	}
	authorNames, err := readNames("author", numAuthors)
	if err != nil {
		return nil, err
	}
	venueNames, err := readNames("venue", numVenues)
	if err != nil {
		return nil, err
	}

	b := graph.NewBuilder()
	for i := uint32(0); i < papers; i++ {
		id, err := readStr()
		if err != nil {
			return nil, fmt.Errorf("dataio: binary paper %d: %w", i, err)
		}
		var year, venue int32
		var authorCount uint16
		if err := binary.Read(br, binary.LittleEndian, &year); err != nil {
			return nil, fmt.Errorf("dataio: binary paper %d year: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &venue); err != nil {
			return nil, fmt.Errorf("dataio: binary paper %d venue: %w", i, err)
		}
		if venue != graph.NoVenue && (venue < 0 || uint32(venue) >= numVenues) {
			return nil, fmt.Errorf("dataio: binary paper %d: venue %d out of range", i, venue)
		}
		if err := binary.Read(br, binary.LittleEndian, &authorCount); err != nil {
			return nil, fmt.Errorf("dataio: binary paper %d authors: %w", i, err)
		}
		var names []string
		for a := uint16(0); a < authorCount; a++ {
			var idx uint32
			if err := binary.Read(br, binary.LittleEndian, &idx); err != nil {
				return nil, fmt.Errorf("dataio: binary paper %d author %d: %w", i, a, err)
			}
			if idx >= numAuthors {
				return nil, fmt.Errorf("dataio: binary paper %d: author %d out of range", i, idx)
			}
			names = append(names, authorNames[idx])
		}
		venueName := ""
		if venue != graph.NoVenue {
			venueName = venueNames[venue]
		}
		if _, err := b.AddPaper(id, int(year), names, venueName); err != nil {
			return nil, fmt.Errorf("dataio: binary: %w", err)
		}
	}
	for e := uint64(0); e < edges; e++ {
		var citing, cited uint32
		if err := binary.Read(br, binary.LittleEndian, &citing); err != nil {
			return nil, fmt.Errorf("dataio: binary edge %d: %w", e, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &cited); err != nil {
			return nil, fmt.Errorf("dataio: binary edge %d: %w", e, err)
		}
		if citing >= papers || cited >= papers {
			return nil, fmt.Errorf("dataio: binary edge %d out of range (%d→%d)", e, citing, cited)
		}
		b.AddEdgeByIndex(int32(citing), int32(cited))
	}
	net, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("dataio: binary: %w", err)
	}
	return net, nil
}
