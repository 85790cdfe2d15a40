package impact

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"attrank/internal/baselines"
	"attrank/internal/core"
	"attrank/internal/graph"
)

func paperID(i int) string { return fmt.Sprintf("p%04d", i) }

// randomNet builds a preferential-attachment-flavored citation network
// with ids "p0000".. and years 1990+i/3, mirroring the core package's
// test corpus shape.
func randomNet(t testing.TB, seed int64, size int) *graph.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < size; i++ {
		if _, err := b.AddPaper(paperID(i), 1990+i/3, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < size; i++ {
		for k := 0; k < 1+rng.Intn(4); k++ {
			b.AddEdgeByIndex(int32(i), int32(rng.Intn(i)))
		}
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func rankedScores(t testing.TB, net *graph.Network) []float64 {
	t.Helper()
	res, err := core.OperatorFor(net).Rank(net.MaxYear(), core.Params{
		Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Scores
}

func computeEpoch(t testing.TB, net *graph.Network, cfg Config) *Epoch {
	t.Helper()
	cfg.Enabled = true
	e, err := Compute(net, rankedScores(t, net), net.MaxYear(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestThresholdMonotonicity: C1 cutoffs never sit below C2's, and so on
// — the classes nest (C1's bucket ⊂ what C2's cutoff admits ⊂ …) for
// every indicator on every corpus.
func TestThresholdMonotonicity(t *testing.T) {
	for _, seed := range []int64{1, 17, 202} {
		e := computeEpoch(t, randomNet(t, seed, 600), Config{})
		for ind := Indicator(0); ind < NumIndicators; ind++ {
			thr := e.Thresholds(ind)
			for c := 1; c < len(thr.Top); c++ {
				if thr.Top[c] > thr.Top[c-1] {
					t.Errorf("seed=%d %s: threshold C%d=%v above C%d=%v",
						seed, ind, c+1, thr.Top[c], c, thr.Top[c-1])
				}
			}
			// Class assignment must agree with the nesting: walking
			// scores from high to low never improves the class.
			scores := append([]float64(nil), e.Scores(ind)...)
			sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
			prev := Class(1)
			for _, s := range scores {
				c := thr.Class(s)
				if c < prev {
					t.Fatalf("seed=%d %s: class improved from %s to %s on descending scores", seed, ind, prev, c)
				}
				prev = c
			}
		}
	}
}

// TestTieContract pins the documented boundary behavior: papers tied at
// a cutoff all take the better class, so a bucket can exceed its
// nominal size but never undershoot it.
func TestTieContract(t *testing.T) {
	// Hand-built score multiset with a tie straddling the C4 boundary:
	// N=30 → k for the 10% class is max(1, ⌊3.0⌋)=3, and ranks 2..5
	// share the score at the cutoff.
	scores := make([]float64, 30)
	scores[0] = 10
	for i := 1; i <= 4; i++ {
		scores[i] = 5
	}
	for i := 5; i < 30; i++ {
		scores[i] = float64(30-i) / 100
	}
	thr := DeriveThresholds(scores)
	// All smaller fractions collapse to k=1 → cutoff 10.
	for c := 0; c < 3; c++ {
		if thr.Top[c] != 10 {
			t.Fatalf("C%d cutoff = %v, want 10", c+1, thr.Top[c])
		}
	}
	if thr.Top[3] != 5 {
		t.Fatalf("C4 cutoff = %v, want 5 (3rd highest)", thr.Top[3])
	}
	if got := thr.Class(10); got != 1 {
		t.Fatalf("top score class = %s, want C1", got)
	}
	// All four tied papers meet the C4 cutoff even though the nominal
	// bucket (through rank 3) holds only two of them.
	if got := thr.Class(5); got != 4 {
		t.Fatalf("boundary tie class = %s, want C4", got)
	}
	if got := thr.Class(4.9999); got != 5 {
		t.Fatalf("just-below-boundary class = %s, want C5", got)
	}
	// Nominal-size floor: at least k papers meet each cutoff.
	for c, f := range ClassFractions {
		k := int(f * float64(len(scores)))
		if k < 1 {
			k = 1
		}
		met := 0
		for _, s := range scores {
			if s >= thr.Top[c] {
				met++
			}
		}
		if met < k {
			t.Errorf("C%d bucket holds %d papers, nominal floor %d", c+1, met, k)
		}
	}
}

// TestClassPermutationInvariance: thresholds and per-paper classes are a
// function of the score multiset and the paper's own score only, so any
// score-preserving permutation of paper order leaves them untouched.
func TestClassPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	scores := make([]float64, 2000)
	for i := range scores {
		scores[i] = rng.ExpFloat64()
	}
	// Inject ties so the permutation actually exercises the boundary.
	for i := 0; i < 200; i++ {
		scores[rng.Intn(len(scores))] = scores[rng.Intn(len(scores))]
	}
	base := DeriveThresholds(scores)
	for trial := 0; trial < 3; trial++ {
		shuffled := append([]float64(nil), scores...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := DeriveThresholds(shuffled); got != base {
			t.Fatalf("trial %d: thresholds %v after shuffle, want %v", trial, got, base)
		}
	}
	for _, s := range scores[:50] {
		if base.Class(s) < 1 || base.Class(s) > 5 {
			t.Fatalf("class out of range for %v", s)
		}
	}
}

// TestImpulseBruteForce: the impulse indicator equals a brute-force
// recount of citing papers with years inside the trailing window.
func TestImpulseBruteForce(t *testing.T) {
	for _, window := range []int{1, 3, 5} {
		net := randomNet(t, 31, 400)
		e := computeEpoch(t, net, Config{ImpulseWindow: window})
		rankedAt := net.MaxYear()
		from := rankedAt - window + 1
		want := make([]float64, net.N())
		for i := 0; i < net.N(); i++ {
			net.Citers(int32(i), func(c int32) {
				if y := net.Paper(c).Year; y >= from && y <= rankedAt {
					want[int32(i)]++
				}
			})
		}
		for i := range want {
			if e.Scores(Impulse)[i] != want[i] {
				t.Fatalf("window=%d: impulse[%d] = %v, brute force %v",
					window, i, e.Scores(Impulse)[i], want[i])
			}
		}
		// cc must be the full in-degree regardless of window.
		for i := 0; i < net.N(); i++ {
			if e.Scores(CitationCount)[i] != float64(net.InDegree(int32(i))) {
				t.Fatalf("cc[%d] != InDegree", i)
			}
		}
	}
}

// TestEpochRelabelingStability: the full epoch — every indicator's
// scores, thresholds and classes — is bit-identical across runs, the
// property follower replay relies on (the cross-layout and
// cross-worker-count guarantees are pinned in core's relabeling and
// parallel suites; here we pin Compute's end-to-end determinism for a
// fixed Config).
func TestEpochRelabelingStability(t *testing.T) {
	net := randomNet(t, 77, 500)
	scores := rankedScores(t, net)
	cfg := Config{Enabled: true}
	base, err := Compute(net, scores, net.MaxYear(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		got, err := Compute(net, scores, net.MaxYear(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.PRIterations != base.PRIterations || got.PRConverged != base.PRConverged {
			t.Fatalf("trial %d: PR iters/converged drifted", trial)
		}
		for ind := Indicator(0); ind < NumIndicators; ind++ {
			if got.Thresholds(ind) != base.Thresholds(ind) {
				t.Fatalf("trial %d: %s thresholds drifted", trial, ind)
			}
			for i := range base.Scores(ind) {
				if got.Scores(ind)[i] != base.Scores(ind)[i] {
					t.Fatalf("trial %d: %s score %d not bit-identical", trial, ind, i)
				}
				if got.Class(ind, int32(i)) != base.Class(ind, int32(i)) {
					t.Fatalf("trial %d: %s class %d drifted", trial, ind, i)
				}
			}
		}
	}
}

// TestInfluenceMatchesSerialReference: the influence indicator, which
// Compute runs on the tiled kernel, is bit-identical to the serial CSC
// baselines.PageRank (same damping, 1e-12 tolerance and 500-iteration
// budget) — the impact-level restatement of core's
// parallel-matches-serial suite.
func TestInfluenceMatchesSerialReference(t *testing.T) {
	net := randomNet(t, 55, 350)
	scores := rankedScores(t, net)
	e, err := Compute(net, scores, net.MaxYear(), Config{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := baselines.PageRank{Alpha: DefaultPRAlpha}.Scores(net, net.MaxYear())
	if err != nil {
		t.Fatal(err)
	}
	if !e.PRConverged {
		t.Fatalf("influence did not converge in %d iterations", e.PRIterations)
	}
	for i, want := range serial {
		if got := e.Scores(Influence)[i]; got != want {
			t.Fatalf("influence %d = %v, serial %v (not bit-identical)", i, got, want)
		}
	}
}

// TestNormalizeID pins the DOI-like normalization contract.
func TestNormalizeID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"10.1000/ABC", "10.1000/abc"},
		{"  10.1000/abc \n", "10.1000/abc"},
		{"doi:10.1000/abc", "10.1000/abc"},
		{"DOI:10.1000/Abc", "10.1000/abc"},
		{"https://doi.org/10.1000/abc", "10.1000/abc"},
		{"http://dx.doi.org/10.1000/abc", "10.1000/abc"},
		{"doi.org/10.1000/abc", "10.1000/abc"},
		{"plainid", "plainid"},
		{"", ""},
	}
	for _, c := range cases {
		if got := NormalizeID(c.in); got != c.want {
			t.Errorf("NormalizeID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestResolve: external-id resolution is case/prefix-insensitive and
// first-paper-wins on clashes.
func TestResolve(t *testing.T) {
	b := graph.NewBuilder()
	for _, p := range []struct {
		id   string
		year int
	}{{"10.1/One", 1995}, {"10.1/one-b", 1996}, {"10.1/ONE", 1997}} {
		if _, err := b.AddPaper(p.id, p.year, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	b.AddEdgeByIndex(1, 0)
	b.AddEdgeByIndex(2, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := computeEpoch(t, net, Config{})
	if idx, ok := e.Resolve(net, "doi:10.1/ONE-B"); !ok || idx != 1 {
		t.Fatalf("Resolve(doi:10.1/ONE-B) = %d,%v", idx, ok)
	}
	if idx, ok := e.Resolve(net, "https://doi.org/10.1/one"); !ok || idx != 0 {
		t.Fatalf("normalization clash should resolve first paper, got %d,%v", idx, ok)
	}
	if _, ok := e.Resolve(net, "10.1/missing"); ok {
		t.Fatal("missing id resolved")
	}
}

// fullMapResolve is the reference resolution: a map from every
// paper's normalized id to its index, first paper wins.
func fullMapResolve(net *graph.Network) func(string) (int32, bool) {
	ids := make(map[string]int32, net.N())
	for i := int32(0); int(i) < net.N(); i++ {
		norm := NormalizeID(net.Paper(i).ID)
		if _, dup := ids[norm]; !dup {
			ids[norm] = i
		}
	}
	return func(q string) (int32, bool) {
		i, ok := ids[NormalizeID(q)]
		return i, ok
	}
}

// TestResolveMatchesFullMap: Resolve, which keeps only the ids that are
// not in normal form, equals the map over every paper's normalized id
// on adversarial corpora: case soup, stored doi: and URL prefixes, the
// non-idempotent "doi:doi:x", padding spaces, and clashes where a later
// paper's raw id is an earlier paper's normal form and the reverse.
func TestResolveMatchesFullMap(t *testing.T) {
	tokens := []string{"10.1/abc", "10.1/ABC", "x", "doi:x", "10.2/Clash", "plain"}
	decorations := []func(string) string{
		func(s string) string { return s },
		strings.ToUpper,
		func(s string) string { return "doi:" + s },
		func(s string) string { return "DOI:" + s },
		func(s string) string { return "doi:doi:" + s },
		func(s string) string { return "https://doi.org/" + s },
		func(s string) string { return "http://dx.doi.org/" + strings.ToUpper(s) },
		func(s string) string { return " " + s + " " },
		func(s string) string { return s + "\t" },
	}
	var variants []string
	for _, tok := range tokens {
		for _, d := range decorations {
			variants = append(variants, d(tok))
		}
	}
	queries := append(slices.Clone(variants), "missing", "doi:missing", "", " ", "doi:", "https://doi.org/")
	for _, v := range variants {
		queries = append(queries, NormalizeID(v), NormalizeID(NormalizeID(v)))
	}

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		b := graph.NewBuilder()
		seen := map[string]bool{}
		for _, i := range rng.Perm(len(variants))[:1+rng.Intn(len(variants))] {
			id := variants[i]
			if seen[id] || strings.TrimSpace(id) == "" {
				continue
			}
			seen[id] = true
			if _, err := b.AddPaper(id, 1990+rng.Intn(10), nil, ""); err != nil {
				t.Fatal(err)
			}
		}
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		e := computeEpoch(t, net, Config{})
		want := fullMapResolve(net)
		for _, q := range queries {
			gi, gok := e.Resolve(net, q)
			wi, wok := want(q)
			if gi != wi || gok != wok {
				t.Fatalf("trial %d: Resolve(%q) = %d, %v; full map gives %d, %v", trial, q, gi, gok, wi, wok)
			}
		}
	}

	// The two clash directions, pinned: the earlier paper wins whether
	// it is the exception or the canonical id.
	for _, ids := range [][2]string{{"10.1/Clash", "10.1/clash"}, {"10.1/clash", "DOI:10.1/CLASH"}} {
		b := graph.NewBuilder()
		for _, id := range ids {
			if _, err := b.AddPaper(id, 2000, nil, ""); err != nil {
				t.Fatal(err)
			}
		}
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if i, ok := computeEpoch(t, net, Config{}).Resolve(net, "https://doi.org/10.1/clash"); !ok || i != 0 {
			t.Fatalf("ids %q: Resolve = %d, %v, want the first paper", ids, i, ok)
		}
	}

	// A corpus of canonical ids keeps no exceptions at all.
	if e := computeEpoch(t, randomNet(t, 5, 200), Config{}); len(e.ids) != 0 {
		t.Fatalf("canonical corpus holds %d exception ids", len(e.ids))
	}
}

// TestComputeValidation pins the error surface ForRanking swallows.
func TestComputeValidation(t *testing.T) {
	net := randomNet(t, 3, 40)
	scores := rankedScores(t, net)
	if _, err := Compute(net, scores[:10], net.MaxYear(), Config{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Compute(net, scores, net.MaxYear(), Config{PRAlpha: 1.5}); err == nil {
		t.Error("bad alpha accepted")
	}
	if _, err := Compute(net, scores, net.MaxYear(), Config{ImpulseWindow: -1}); err == nil {
		t.Error("negative window accepted")
	}
	empty, err := graph.NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(empty, nil, 2000, Config{}); err == nil {
		t.Error("empty network accepted")
	}
	if e := ForRanking(net, scores[:10], net.MaxYear(), Config{Enabled: true}, t.Logf); e != nil {
		t.Error("ForRanking should return nil on error")
	}
	if e := ForRanking(net, scores, net.MaxYear(), Config{}, t.Logf); e != nil {
		t.Error("ForRanking should return nil when disabled")
	}
	if e := ForRanking(net, scores, net.MaxYear(), Config{Enabled: true}, nil); e == nil {
		t.Error("ForRanking failed on valid input")
	}
}

// TestClassString pins the rendering the service layer serves.
func TestClassString(t *testing.T) {
	want := map[Class]string{1: "C1", 2: "C2", 3: "C3", 4: "C4", 5: "C5", 0: "C?", 6: "C?"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
	inds := map[Indicator]string{Popularity: "popularity", Influence: "influence", Impulse: "impulse", CitationCount: "cc", NumIndicators: "unknown"}
	for ind, s := range inds {
		if ind.String() != s {
			t.Errorf("Indicator(%d).String() = %q, want %q", ind, ind.String(), s)
		}
	}
}
