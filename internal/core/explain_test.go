package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"attrank/internal/graph"
	"attrank/internal/metrics"
	"attrank/internal/synth"
)

func TestExplainPartitionsScore(t *testing.T) {
	n := testNet(t)
	p := Params{Alpha: 0.4, Beta: 0.3, Gamma: 0.3, AttentionYears: 3, W: -0.2}
	res, err := Rank(n, 1998, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); int(i) < n.N(); i++ {
		e, err := Explain(n, res, p, i)
		if err != nil {
			t.Fatal(err)
		}
		sum := e.Flow + e.Attention + e.Recency
		if math.Abs(sum-e.Score) > 1e-9 {
			t.Fatalf("paper %d: decomposition %v != score %v", i, sum, e.Score)
		}
	}
}

func TestExplainTopCiters(t *testing.T) {
	n := testNet(t)
	p := Params{Alpha: 0.4, Beta: 0.3, Gamma: 0.3, AttentionYears: 3, W: -0.2}
	res, err := Rank(n, 1998, p)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := n.Lookup("p2")
	e, err := Explain(n, res, p, p2)
	if err != nil {
		t.Fatal(err)
	}
	// p2 is cited by p3, p4, p5 — all with references, so all contribute.
	if len(e.TopCiters) != 3 {
		t.Fatalf("TopCiters = %d, want 3", len(e.TopCiters))
	}
	for i := 1; i < len(e.TopCiters); i++ {
		if e.TopCiters[i].Mass > e.TopCiters[i-1].Mass {
			t.Error("TopCiters not sorted by mass")
		}
	}
	if !strings.Contains(e.String(), "score=") {
		t.Error("String() missing score")
	}
}

func TestExplainAlphaZeroHasNoFlow(t *testing.T) {
	n := testNet(t)
	p := Params{Alpha: 0, Beta: 0.5, Gamma: 0.5, AttentionYears: 3, W: -0.2}
	res, err := Rank(n, 1998, p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Explain(n, res, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Flow != 0 || e.TopCiters != nil {
		t.Errorf("α=0 explanation should carry no flow: %+v", e)
	}
	if math.Abs(e.Attention+e.Recency-e.Score) > 1e-12 {
		t.Error("α=0 decomposition must be exact")
	}
}

func TestExplainValidation(t *testing.T) {
	n := testNet(t)
	p := Params{Alpha: 0.4, Beta: 0.3, Gamma: 0.3, AttentionYears: 3, W: -0.2}
	res, err := Rank(n, 1998, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Explain(n, res, p, 99); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := Explain(n, nil, p, 0); err == nil {
		t.Error("nil result accepted")
	}
	bad := p
	bad.Alpha = 2
	if _, err := Explain(n, res, bad, 0); err == nil {
		t.Error("invalid params accepted")
	}
}

// explainRescan is Explain's Eq. 4 decomposition without the dangling
// mass cache: it rescans every paper on every call, summing in the same
// ascending-index order, so Explain must match it bit for bit.
func explainRescan(net *graph.Network, res *Result, p Params, i int32) (flow, att, rec float64) {
	att, rec = p.Beta*res.Attention[i], p.Gamma*res.Recency[i]
	if p.Alpha == 0 {
		return 0, att, rec
	}
	var masses []float64
	net.Citers(i, func(c int32) {
		if d := net.OutDegree(c); d > 0 {
			masses = append(masses, p.Alpha*res.Scores[c]/float64(d))
		}
	})
	dangling := 0.0
	for j := int32(0); int(j) < net.N(); j++ {
		if net.OutDegree(j) == 0 {
			dangling += res.Scores[j]
		}
	}
	flow = p.Alpha * dangling / float64(net.N())
	for _, m := range masses {
		flow += m
	}
	return flow, att, rec
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkExplainBits requires Explain(net, res, p, i) to equal the rescan
// reference in every addend, bit for bit.
func checkExplainBits(t *testing.T, net *graph.Network, res *Result, p Params, i int32) {
	t.Helper()
	e, err := Explain(net, res, p, i)
	if err != nil {
		t.Fatal(err)
	}
	flow, att, rec := explainRescan(net, res, p, i)
	if !sameBits(e.Flow, flow) || !sameBits(e.Attention, att) || !sameBits(e.Recency, rec) {
		t.Fatalf("paper %d: Explain (%v, %v, %v) != rescan (%v, %v, %v)",
			i, e.Flow, e.Attention, e.Recency, flow, att, rec)
	}
}

// TestExplainMatchesRescan: caching the dangling mass per Result must not
// move a single bit of any paper's decomposition on a realistic corpus.
func TestExplainMatchesRescan(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-paper corpus, N rescans")
	}
	net, err := synth.GenerateSeeded(synth.DBLP(), 7)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Alpha: 0.4, Beta: 0.3, Gamma: 0.3, AttentionYears: 3, W: -0.16}
	res, err := Rank(net, net.MaxYear(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); int(i) < net.N(); i++ {
		checkExplainBits(t, net, res, p, i)
	}
}

// TestExplainRecomputesForAnotherNetwork: a Result explained against a
// second network of the same size must not reuse the first network's
// cached dangling mass, in either direction.
func TestExplainRecomputesForAnotherNetwork(t *testing.T) {
	first := testNet(t)
	// Same papers and citations, minus p1's only reference: p1 joins p0
	// in the dangling set.
	b := graph.NewBuilder()
	for i := int32(0); int(i) < first.N(); i++ {
		pp := first.Paper(i)
		if _, err := b.AddPaper(pp.ID, pp.Year, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); int(i) < first.N(); i++ {
		id := first.Paper(i).ID
		first.References(i, func(ref int32) {
			if ref := first.Paper(ref).ID; id != "p1" {
				b.AddEdge(id, ref)
			}
		})
	}
	second, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Alpha: 0.4, Beta: 0.3, Gamma: 0.3, AttentionYears: 3, W: -0.2}
	res, err := Rank(first, 1998, p)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := first.Lookup("p0")
	before, err := Explain(first, res, p, p0)
	if err != nil {
		t.Fatal(err)
	}
	checkExplainBits(t, second, res, p, p0)
	other, _, _ := explainRescan(second, res, p, p0)
	if sameBits(other, before.Flow) {
		t.Fatal("fixture does not separate the two networks' dangling mass")
	}
	// Back on the first network after the second replaced the cache.
	checkExplainBits(t, first, res, p, p0)
}

// TestExplainConcurrentFirstUse: goroutines racing to fill one fresh
// Result's cache must all see the rescan's bits (run under -race).
func TestExplainConcurrentFirstUse(t *testing.T) {
	net := randomNet(t, 11, 300)
	p := Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2}
	res, err := Rank(net, net.MaxYear(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, net.N())
	for i := range want {
		want[i], _, _ = explainRescan(net, res, p, int32(i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < net.N(); k++ {
				i := int32((k + g*37) % net.N())
				e, err := Explain(net, res, p, i)
				if err == nil && !sameBits(e.Flow, want[i]) {
					err = fmt.Errorf("paper %d: flow %v, want %v", i, e.Flow, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkExplain explains the top-ranked paper of the 100k-paper
// network: the per-request work of a /v1/paper read once the epoch's
// dangling mass is cached.
func BenchmarkExplain(b *testing.B) {
	net := bench100k(b)
	p := Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16}
	res, err := Rank(net, net.MaxYear(), p)
	if err != nil {
		b.Fatal(err)
	}
	top := int32(metrics.TopK(res.Scores, 1)[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if explainSink, err = Explain(net, res, p, top); err != nil {
			b.Fatal(err)
		}
	}
}

var explainSink Explanation
