package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"attrank/internal/sparse"
)

// TestValidateRejectsUnsortedReferences: HasEdge and CitationMatrix read
// each reference list as strictly ascending, so Validate rejects a list
// that is out of order or repeats an entry.
func TestValidateRejectsUnsortedReferences(t *testing.T) {
	for _, corrupt := range []struct {
		name string
		edit func(refs []int32)
	}{
		{"descending", func(refs []int32) { refs[0], refs[1] = refs[1], refs[0] }},
		{"duplicate", func(refs []int32) { refs[1] = refs[0] }},
	} {
		t.Run(corrupt.name, func(t *testing.T) {
			n := buildTiny(t)
			p2, _ := n.Lookup("p2") // cites p0 and p1
			corrupt.edit(n.refs[n.refPtr[p2]:n.refPtr[p2+1]])
			err := n.Validate()
			if err == nil || !strings.Contains(err.Error(), "not strictly ascending") {
				t.Fatalf("Validate = %v, want a strictly-ascending error", err)
			}
		})
	}
}

// checkMatrices compares every column of the network's matrices, bit
// for bit, against its reference lists: CitationMatrix holds 1 per
// reference, StochasticMatrix 1/k (k the out-degree, dangling when 0)
// and 1/n down a dangling column, AgeWeightedMatrix gamma^age of the
// citing paper, and WeightedMatrix the weight of each citation.
func checkMatrices(t *testing.T, net *Network) {
	t.Helper()
	n := net.N()
	now, gamma := net.MaxYear()+1, 0.7
	weight := func(citing, cited int32) float64 { return float64(citing) + 0.25*float64(cited) }
	c, err := net.CitationMatrix()
	if err != nil {
		t.Fatal(err)
	}
	s, err := net.StochasticMatrix()
	if err != nil {
		t.Fatal(err)
	}
	a, err := net.AgeWeightedMatrix(now, gamma)
	if err != nil {
		t.Fatal(err)
	}
	w, err := net.WeightedMatrix(weight)
	if err != nil {
		t.Fatal(err)
	}
	// With one stored entry per reference, each matrix holds a nonzero
	// at every reference (checked below through At) and nowhere else.
	if c.Rows() != n || c.Cols() != n || s.N() != n || c.NNZ() != net.Edges() || a.NNZ() != net.Edges() || w.NNZ() != net.Edges() {
		t.Fatalf("citation matrix %dx%d, stochastic %d, nnz %d/%d/%d; want n %d, %d edges",
			c.Rows(), c.Cols(), s.N(), c.NNZ(), a.NNZ(), w.NNZ(), n, net.Edges())
	}
	same := func(what string, j int32, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s column %d: %v, want %v", what, j, got, want)
		}
	}
	for j := int32(0); int(j) < n; j++ {
		var refs []int32
		net.References(j, func(r int32) { refs = append(refs, r) })
		k := len(refs)
		age := max(now-net.Year(j), 0)
		for _, m := range []struct {
			name string
			val  func(cited int32) float64
			mat  *sparse.Matrix
		}{
			{"citation", func(int32) float64 { return 1 }, c},
			{"age-weighted", func(int32) float64 { return math.Pow(gamma, float64(age)) }, a},
			{"weighted", func(r int32) float64 { return weight(j, r) }, w},
		} {
			for _, r := range refs {
				same(m.name, j, m.mat.At(int(r), int(j)), m.val(r))
			}
		}
		if s.Dangling(int(j)) != (k == 0) {
			t.Fatalf("column %d dangling = %v with %d references", j, s.Dangling(int(j)), k)
		}
		for i := int32(0); int(i) < n; i++ {
			want := 0.0
			switch {
			case k == 0:
				want = 1 / float64(n)
			case net.HasEdge(j, i):
				want = 1 / float64(k)
			}
			same("stochastic", j, s.At(int(i), int(j)), want)
		}
	}
}

// TestCitationMatrixMatchesReferences: over random networks and chains
// of spliced builds, starting from an empty network and holding dangling
// papers, every matrix the network wraps matches its reference lists.
func TestCitationMatrixMatchesReferences(t *testing.T) {
	empty, err := NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	checkMatrices(t, empty)
	checkMatrices(t, buildTiny(t))

	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 40; trial++ {
		var ids []string
		net := empty
		for gen := 0; gen < 4; gen++ {
			papers := rng.Intn(12)
			if gen == 0 && trial%2 == 0 {
				papers = 0 // grow from an empty network
			}
			b := NewBuilderFrom(net)
			applyOps(t, b, randomBatch(rng, &ids, gen, papers, rng.Intn(3*len(ids)+3*papers+1), ""))
			if net, err = b.Build(); err != nil {
				t.Fatalf("trial %d generation %d: %v", trial, gen, err)
			}
			if err := net.Validate(); err != nil {
				t.Fatal(err)
			}
			checkMatrices(t, net)
		}
	}
}
