package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"attrank/internal/graph"
	"attrank/internal/synth"
)

// The workload corpus: the synthetic dblp profile scaled to benchPapers
// papers, generated from a fixed seed. Only the load (arrival times, read
// mix, writes) follows -seed; the corpus never does, so two seeds measure
// the same system on the same data.
const (
	benchPapers = 100000
	corpusSeed  = 1
)

// The pinned fingerprint of the benchPapers corpus. A change to
// internal/synth that alters the generated network would otherwise change
// the workload silently; instead every set-up fails its gate.
const (
	corpusEdges       = 796447
	corpusFingerprint = 0xa8446d93ae2380d0
)

// generateCorpus builds the corpus of the given size.
func generateCorpus(papers int) (*graph.Network, error) {
	prof, err := synth.ProfileByName("dblp")
	if err != nil {
		return nil, err
	}
	prof = prof.Scale(float64(papers) / float64(prof.Papers))
	return synth.GenerateSeeded(prof, corpusSeed)
}

// fingerprint is FNV-64a over the paper IDs in index order followed by
// the edge list (citing, cited index pairs in reference order).
func fingerprint(net *graph.Network) uint64 {
	h := fnv.New64a()
	for i := int32(0); int(i) < net.N(); i++ {
		h.Write([]byte(net.Paper(i).ID))
		h.Write([]byte{0})
	}
	var buf [8]byte
	for i := int32(0); int(i) < net.N(); i++ {
		net.References(i, func(ref int32) {
			binary.LittleEndian.PutUint32(buf[:4], uint32(i))
			binary.LittleEndian.PutUint32(buf[4:], uint32(ref))
			h.Write(buf[:])
		})
	}
	return h.Sum64()
}

// checkCorpus is the fingerprint gate. Corpora of other sizes (the
// package tests use small ones) have no pinned fingerprint.
func checkCorpus(net *graph.Network) error {
	if net.N() != benchPapers {
		return nil
	}
	if got := fingerprint(net); net.Edges() != corpusEdges || got != corpusFingerprint {
		return fmt.Errorf("corpus changed: %d papers, %d edges, fingerprint %#016x; pinned %d edges, %#016x",
			net.N(), net.Edges(), got, corpusEdges, uint64(corpusFingerprint))
	}
	return nil
}
