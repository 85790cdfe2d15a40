package graph

import (
	"fmt"
	"math"

	"attrank/internal/sparse"
)

// CitationMatrix returns the 0/1 citation matrix C of the network as a
// sparse matrix: C[i,j] = 1 iff paper j cites paper i (column j is the
// reference list of j). The matrix wraps the network's reference CSR,
// which is already deduplicated and ascending within each list, so
// building it sorts nothing.
func (n *Network) CitationMatrix() (*sparse.Matrix, error) {
	ones := make([]float64, len(n.refs))
	for k := range ones {
		ones[k] = 1
	}
	return n.refMatrix("citation", ones)
}

// StochasticMatrix returns the column-stochastic matrix S of the paper:
// each paper spreads unit mass uniformly over its references, and papers
// without references are dangling columns handled by the Stochastic type.
// It wraps the network's reference CSR in sparse's pattern form, so it
// builds no 0/1 matrix and no value array: each entry's 1/k is computed
// where it is read.
func (n *Network) StochasticMatrix() (*sparse.Stochastic, error) {
	s, err := sparse.NewCitationStochastic(n.N(), n.refPtr, n.refs)
	if err != nil {
		return nil, fmt.Errorf("graph: stochastic matrix: %w", err)
	}
	return s, nil
}

// AgeWeightedMatrix returns the retained adjacency matrix of RAM/ECM
// (Ghosh et al. 2011): entry (i,j) = gamma^(now − t_j) if paper j cites
// paper i, where t_j is the publication year of the *citing* paper, so
// recent citations retain more weight. gamma must be in (0, 1].
func (n *Network) AgeWeightedMatrix(now int, gamma float64) (*sparse.Matrix, error) {
	if gamma <= 0 || gamma > 1 {
		return nil, fmt.Errorf("graph: age-weighted matrix: gamma %v out of (0,1]", gamma)
	}
	val := make([]float64, len(n.refs))
	for j := range n.papers {
		age := max(now-n.papers[j].Year, 0)
		w := math.Pow(gamma, float64(age))
		for k := n.refPtr[j]; k < n.refPtr[j+1]; k++ {
			val[k] = w
		}
	}
	return n.refMatrix("age-weighted", val)
}

// WeightedMatrix returns the citation matrix with entry (i,j) =
// weight(j, i) if paper j cites paper i: the reference lists weighted
// edge by edge, for variants such as time-aware PageRank.
func (n *Network) WeightedMatrix(weight func(citing, cited int32) float64) (*sparse.Matrix, error) {
	val := make([]float64, len(n.refs))
	for j := int32(0); int(j) < n.N(); j++ {
		for k := n.refPtr[j]; k < n.refPtr[j+1]; k++ {
			val[k] = weight(j, n.refs[k])
		}
	}
	return n.refMatrix("weighted", val)
}

// refMatrix wraps the reference CSR with one value per reference.
func (n *Network) refMatrix(kind string, val []float64) (*sparse.Matrix, error) {
	m, err := sparse.FromCSC(n.N(), n.N(), n.refPtr, n.refs, val)
	if err != nil {
		return nil, fmt.Errorf("graph: %s matrix: %w", kind, err)
	}
	return m, nil
}

// PaperAuthorEdges calls fn(paper, author) for every paper–author
// incidence, the bipartite structure used by FutureRank and the WSDM
// winner.
func (n *Network) PaperAuthorEdges(fn func(paper, author int32)) {
	for i := range n.papers {
		for _, a := range n.papers[i].Authors {
			fn(int32(i), a)
		}
	}
}

// PaperVenueEdges calls fn(paper, venue) for every paper with a venue.
func (n *Network) PaperVenueEdges(fn func(paper, venue int32)) {
	for i := range n.papers {
		if v := n.papers[i].Venue; v != NoVenue {
			fn(int32(i), v)
		}
	}
}
