package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT renders the network (or its most-cited core, when maxNodes is
// positive and smaller than the network) in Graphviz DOT format for
// visualization. Nodes are labeled "ID (year)"; edges point from citing
// to cited paper.
func (n *Network) WriteDOT(w io.Writer, maxNodes int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph citations {")
	fmt.Fprintln(bw, "  rankdir=RL;")
	fmt.Fprintln(bw, "  node [shape=box, fontsize=10];")

	include := make(map[int32]bool, n.N())
	if maxNodes > 0 && maxNodes < n.N() {
		for _, i := range n.TopByInDegree(maxNodes) {
			include[i] = true
		}
	} else {
		for i := int32(0); int(i) < n.N(); i++ {
			include[i] = true
		}
	}

	for i := int32(0); int(i) < n.N(); i++ {
		if !include[i] {
			continue
		}
		p := n.papers[i]
		fmt.Fprintf(bw, "  %q [label=%q];\n", p.ID, fmt.Sprintf("%s (%d)", p.ID, p.Year))
	}
	for i := int32(0); int(i) < n.N(); i++ {
		if !include[i] {
			continue
		}
		id := n.papers[i].ID
		var err error
		n.References(i, func(ref int32) {
			if err == nil && include[ref] {
				_, err = fmt.Fprintf(bw, "  %q -> %q;\n", id, n.papers[ref].ID)
			}
		})
		if err != nil {
			return fmt.Errorf("graph: dot: %w", err)
		}
	}
	fmt.Fprintln(bw, "}")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: dot: %w", err)
	}
	return nil
}
