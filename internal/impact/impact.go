// Package impact computes the multi-indicator view BIP! — the paper
// authors' production service — serves per DOI: popularity (AttRank),
// influence (PageRank), impulse (citations received in a short window
// after publication history's tail, here the last ImpulseWindow years)
// and raw citation count, each bucketed into percentile impact classes
// C1–C5 (top 0.01% / 0.1% / 1% / 10% / rest).
//
// An Epoch is computed once per published full ranking epoch and is a
// pure function of (network, AttRank scores, ranking time, Config): no
// clocks, no randomness, no iteration-order dependence. Its one solve,
// the influence PageRank (InfluenceRank), is shipped to replicated
// followers with the epoch's scores; a follower re-derives impulse,
// cc and every class cutoff itself (Derive), and by that purity lands
// on the leader's classes bit for bit (DESIGN.md §15).
//
// # Threshold and tie contract
//
// For each indicator, the class cutoffs are order statistics taken at
// k_f = max(1, ⌊f·N⌋) for f ∈ {1e-4, 1e-3, 1e-2, 1e-1}:
// Thresholds.Top[c] is the k_f-th highest score. A paper's class
// is the FIRST class whose cutoff its score meets (score ≥ Top[c]), so
// papers tied at a bucket boundary all take the better class — the
// class-c bucket can hold more than k_f papers, never fewer. Cutoffs
// are monotone non-increasing C1→C4 by construction. Because both the
// cutoffs and the assignment depend only on the score multiset and the
// paper's own score, classes are invariant under any score-preserving
// permutation of paper ids. Degenerate corpora (e.g. an impulse cutoff
// of 0 when fewer than k papers were cited in the window) collapse
// classes upward; that is documented behavior, not prevented.
package impact

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"attrank/internal/core"
	"attrank/internal/graph"
)

// Defaults for Config fields left zero.
const (
	// DefaultImpulseWindow matches BIP!'s 3-year impulse indicator (and
	// the serving layer's recent_citations_3y field).
	DefaultImpulseWindow = 3
	// DefaultPRAlpha is the PageRank damping used for the influence
	// indicator; 0.5 follows the paper's §4.3 baseline setup for
	// citation networks.
	DefaultPRAlpha = 0.5
)

// Config configures per-epoch indicator computation. It is part of the
// replication determinism contract: a leader ships its (defaulted)
// Config at bootstrap and followers derive with exactly those values.
// The influence PageRank always runs on the tiled kernel, whose Result
// does not depend on the worker count (see core.PageRankParams), so no
// worker setting is part of it.
type Config struct {
	// Enabled turns indicator computation on. The zero Config disables
	// it: rankings publish with a nil Impact and the /v1/impact
	// endpoints answer 503.
	Enabled bool
	// ImpulseWindow is the impulse indicator's citation window in years
	// (citations received in [rankedAt−w+1, rankedAt]).
	// DefaultImpulseWindow if zero.
	ImpulseWindow int
	// PRAlpha is the influence indicator's PageRank damping.
	// DefaultPRAlpha if zero.
	PRAlpha float64
	// PRTol and PRMaxIter bound the PageRank iteration
	// (core.DefaultTol / core.DefaultPageRankMaxIter if zero).
	PRTol     float64
	PRMaxIter int
}

// WithDefaults returns cfg with zero fields resolved, so the exact
// values — not "zero means default" conventions — cross the replication
// wire.
func (c Config) WithDefaults() Config {
	if c.ImpulseWindow == 0 {
		c.ImpulseWindow = DefaultImpulseWindow
	}
	if c.PRAlpha == 0 {
		c.PRAlpha = DefaultPRAlpha
	}
	if c.PRTol == 0 {
		c.PRTol = core.DefaultTol
	}
	if c.PRMaxIter == 0 {
		c.PRMaxIter = core.DefaultPageRankMaxIter
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ImpulseWindow < 0 {
		return fmt.Errorf("impact: negative impulse window %d", c.ImpulseWindow)
	}
	return core.PageRankParams{Alpha: c.PRAlpha, Tol: c.PRTol, MaxIter: c.PRMaxIter}.Validate()
}

// Indicator enumerates the served indicators.
type Indicator int

const (
	// Popularity is the AttRank score — the paper's short-term impact
	// estimate.
	Popularity Indicator = iota
	// Influence is the PageRank score — long-term, age-biased impact.
	Influence
	// Impulse is the citation count inside the trailing window.
	Impulse
	// CitationCount is the raw in-degree.
	CitationCount

	NumIndicators
)

func (ind Indicator) String() string {
	switch ind {
	case Popularity:
		return "popularity"
	case Influence:
		return "influence"
	case Impulse:
		return "impulse"
	case CitationCount:
		return "cc"
	}
	return "unknown"
}

// ClassFractions are the percentile cutoff fractions for classes C1–C4;
// everything below the last is C5.
var ClassFractions = [4]float64{1e-4, 1e-3, 1e-2, 1e-1}

// Class is an impact class, 1 (top 0.01%) through 5 (rest).
type Class uint8

func (c Class) String() string {
	if c < 1 || c > 5 {
		return "C?"
	}
	return [5]string{"C1", "C2", "C3", "C4", "C5"}[c-1]
}

// Thresholds are one indicator's class cutoffs: Top[c] is the minimum
// score of class c+1 (0-indexed), monotone non-increasing.
type Thresholds struct {
	Top [4]float64 `json:"top"`
}

// Class assigns the class for a score under the tie contract above:
// the first cutoff the score meets wins, boundary ties share the
// better class.
func (t Thresholds) Class(score float64) Class {
	for c, thr := range t.Top {
		if score >= thr {
			return Class(c + 1)
		}
	}
	return 5
}

// DeriveThresholds computes the percentile cutoffs for one score
// vector. It depends only on the score multiset, never on paper order.
//
// Top[c] is the k_c-th highest score, the value a full descending sort
// would hold at index k_c−1. Only those four order statistics matter,
// so they are found by nested selection on one copy instead: select
// k_C4 over the whole copy, then k_C3 inside the top k_C4 (which holds
// the k_C3 highest too), and so on up to C1. The k-th highest value of
// a multiset is unique, so the cutoffs equal the sorted ones.
func DeriveThresholds(scores []float64) Thresholds {
	buf := append([]float64(nil), scores...)
	var t Thresholds
	for c := len(ClassFractions) - 1; c >= 0; c-- {
		k := int(ClassFractions[c] * float64(len(scores)))
		if k < 1 {
			k = 1
		}
		selectDesc(buf, k-1)
		t.Top[c] = buf[k-1]
		buf = buf[:k]
	}
	return t
}

// countThresholds is DeriveThresholds for a non-empty vector of
// non-negative integers (stored as float64, as Compute stores citation
// counts). The k-th highest value is read off a histogram of the
// values, walking down from the maximum until k entries are at or
// above it: O(n + max) with no copy and no selection. A value is
// exact in float64, so the cutoffs carry DeriveThresholds' bits.
func countThresholds(counts []float64) Thresholds {
	top := 0
	for _, v := range counts {
		top = max(top, int(v))
	}
	hist := make([]int, top+1)
	for _, v := range counts {
		hist[int(v)]++
	}
	var t Thresholds
	v, atOrAbove := top, hist[top]
	for c, f := range ClassFractions {
		k := max(1, int(f*float64(len(counts))))
		for atOrAbove < k {
			v--
			atOrAbove += hist[v]
		}
		t.Top[c] = float64(v)
	}
	return t
}

// before reports whether a precedes b in descending order: the reverse
// of sort.Float64Slice's order, so NaN sorts last and -0 ties +0.
func before(a, b float64) bool {
	return b < a || (b != b && a == a)
}

// selectDesc rearranges v so that v[k] holds the value a descending
// sort would put there, no entry of v[:k] after it and no entry of
// v[k+1:] before it. It is a quickselect with a median-of-three pivot
// and a three-way partition, so plateaus (integer-valued indicators are
// mostly ties) settle in one pass; past 2·log2(len(v)) rounds it sorts
// what is left, bounding the worst case at O(n log n).
func selectDesc(v []float64, k int) {
	lo, hi := 0, len(v)
	for rounds := 2 * bits.Len(uint(len(v))); hi-lo > 1; rounds-- {
		if rounds == 0 {
			sort.Sort(sort.Reverse(sort.Float64Slice(v[lo:hi])))
			return
		}
		a, b, c := v[lo], v[lo+(hi-lo)/2], v[hi-1]
		if before(b, a) {
			a, b = b, a
		}
		if before(c, b) {
			b = c
			if before(b, a) {
				b = a
			}
		}
		p := b // median of the three
		// [lo, lt) precede p, [lt, i) tie it, [gt, hi) follow it.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case before(v[i], p):
				v[lt], v[i] = v[i], v[lt]
				lt++
				i++
			case before(p, v[i]):
				gt--
				v[gt], v[i] = v[i], v[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// Epoch is the immutable per-epoch indicator state attached to a
// published ingest.Ranking. Score slices are indexed by paper index in
// the ranking's network; Scores(Popularity) aliases the AttRank score
// vector passed to Compute rather than copying it.
type Epoch struct {
	// RankedAt is the ranking time the epoch was computed at.
	RankedAt int
	// Window is the impulse window actually used (years).
	Window int
	// PRAlpha is the influence damping actually used.
	PRAlpha float64
	// PRIterations/PRConverged are the influence iteration diagnostics.
	PRIterations int
	PRConverged  bool

	scores [NumIndicators][]float64
	thr    [NumIndicators]Thresholds
	// ids maps NormalizeID(id) → paper index for the exceptions only:
	// papers whose id is not already in normal form (NormalizeID(id) !=
	// id), first paper wins. On a corpus of canonical ids it is empty.
	ids map[string]int32
}

// Papers returns how many papers the epoch covers: the papers of the
// network it was computed on, which hold indices [0, Papers()) in every
// later network spliced from that one.
func (e *Epoch) Papers() int { return len(e.scores[Popularity]) }

// Scores returns the indicator's score vector. Callers must not mutate
// it.
func (e *Epoch) Scores(ind Indicator) []float64 { return e.scores[ind] }

// Thresholds returns the indicator's class cutoffs.
func (e *Epoch) Thresholds(ind Indicator) Thresholds { return e.thr[ind] }

// Class returns paper i's class for the indicator.
func (e *Epoch) Class(ind Indicator, i int32) Class {
	return e.thr[ind].Class(e.scores[ind][i])
}

// Resolve maps an external (DOI-like) id to a paper index of net by
// normalized form: the first paper whose NormalizeID equals
// NormalizeID(id). net is the network the epoch was derived on, or one
// spliced from it (whose first Papers() papers are the epoch's): the
// epoch keeps no network of its own, so indicators carried forward do
// not keep their epoch's network alive. A paper past Papers() is
// resolved too; the epoch holds no scores for it. Callers should try
// the network's exact Lookup first.
//
// The candidates are the first exception in ids and the paper whose id
// IS the normal form. The latter is found by the network's Lookup and
// counts only if that id is a fixed point of NormalizeID, which is not
// idempotent ("doi:doi:x" normalizes to "doi:x", and that to "x").
func (e *Epoch) Resolve(net *graph.Network, id string) (int32, bool) {
	norm := NormalizeID(id)
	idx, ok := e.ids[norm]
	if j, found := net.Lookup(norm); found && (!ok || j < idx) && NormalizeID(norm) == norm {
		return j, true
	}
	return idx, ok
}

// NormalizeID canonicalizes a DOI-like external id: trim whitespace,
// strip a scheme/host or "doi:" prefix, lowercase (DOIs are
// case-insensitive per the DOI handbook).
func NormalizeID(id string) string {
	id = strings.TrimSpace(id)
	lower := strings.ToLower(id)
	for _, prefix := range []string{"https://doi.org/", "http://doi.org/", "https://dx.doi.org/", "http://dx.doi.org/", "doi.org/", "doi:"} {
		if strings.HasPrefix(lower, prefix) {
			id = id[len(prefix):]
			lower = lower[len(prefix):]
			break
		}
	}
	return lower
}

// Compute derives the full indicator epoch for a ranked network:
// InfluenceRank, then Derive. attrank must be the published AttRank
// score vector of the SAME full epoch (len == net.N()); rankedAt the
// epoch's effective ranking time. The result is deterministic: equal
// inputs produce bit-identical scores, thresholds and classes on every
// replica, whatever its core count.
func Compute(net *graph.Network, attrank []float64, rankedAt int, cfg Config) (*Epoch, error) {
	return ComputeOn(net, attrank, rankedAt, cfg, -1)
}

// ComputeOn is Compute with the influence PageRank on at most workers
// cores (-1: every core). The result is bit-identical for every worker
// count; a live leader computes an epoch's indicators on one core, off
// the path that publishes its ranking.
func ComputeOn(net *graph.Network, attrank []float64, rankedAt int, cfg Config, workers int) (*Epoch, error) {
	if err := checkInput(net, attrank, "attrank", cfg); err != nil {
		return nil, err
	}
	pr, err := influenceRank(net, cfg, workers)
	if err != nil {
		return nil, err
	}
	return Derive(net, attrank, pr, rankedAt, cfg)
}

// checkInput validates cfg and that v holds one score per paper of a
// non-empty net.
func checkInput(net *graph.Network, v []float64, what string, cfg Config) error {
	if err := cfg.WithDefaults().Validate(); err != nil {
		return err
	}
	if net.N() == 0 {
		return core.ErrEmptyNetwork
	}
	if len(v) != net.N() {
		return fmt.Errorf("impact: %d %s scores for %d papers", len(v), what, net.N())
	}
	return nil
}

// InfluenceRank solves the influence indicator's PageRank on net: the
// one iterative solve of an epoch's indicators. It runs on the tiled
// kernel on every core, and its Result does not depend on the core
// count. A replication leader ships the Result's scores, iteration
// count and convergence flag, so a follower derives the epoch without
// solving it again.
func InfluenceRank(net *graph.Network, cfg Config) (*core.Result, error) {
	return influenceRank(net, cfg, -1)
}

func influenceRank(net *graph.Network, cfg Config, workers int) (*core.Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net.N() == 0 {
		return nil, core.ErrEmptyNetwork
	}
	pr, err := core.OperatorFor(net).PageRank(core.PageRankParams{
		Alpha: cfg.PRAlpha, Tol: cfg.PRTol, MaxIter: cfg.PRMaxIter, Workers: workers,
	})
	if err != nil {
		return nil, fmt.Errorf("impact: influence: %w", err)
	}
	return pr, nil
}

// Derive builds the indicator epoch from the epoch's AttRank scores and
// its influence PageRank (InfluenceRank on the same network, computed
// here or shipped by a replication leader). Everything it adds is
// cheap and exact: impulse and citation counts, the four indicators'
// class cutoffs, and the id index. The epoch aliases attrank and
// influence.Scores.
func Derive(net *graph.Network, attrank []float64, influence *core.Result, rankedAt int, cfg Config) (*Epoch, error) {
	if err := checkInput(net, attrank, "attrank", cfg); err != nil {
		return nil, err
	}
	if err := checkInput(net, influence.Scores, "influence", cfg); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	n := net.N()
	e := &Epoch{RankedAt: rankedAt, Window: cfg.ImpulseWindow, PRAlpha: cfg.PRAlpha,
		PRIterations: influence.Iterations, PRConverged: influence.Converged}
	e.scores[Popularity] = attrank
	e.scores[Influence] = influence.Scores

	// Impulse and citation counts are exact integers stored as float64,
	// so every arithmetic below is trivially deterministic, and their
	// cutoffs come from a count histogram (countThresholds).
	impulse := make([]float64, n)
	cc := make([]float64, n)
	for i, c := range net.WindowCitations(rankedAt-cfg.ImpulseWindow+1, rankedAt) {
		impulse[i] = float64(c)
		cc[i] = float64(net.InDegree(int32(i)))
	}
	e.scores[Impulse] = impulse
	e.scores[CitationCount] = cc

	e.thr[Popularity] = DeriveThresholds(e.scores[Popularity])
	e.thr[Influence] = DeriveThresholds(e.scores[Influence])
	e.thr[Impulse] = countThresholds(impulse)
	e.thr[CitationCount] = countThresholds(cc)

	e.ids = make(map[string]int32)
	for i := int32(0); int(i) < n; i++ {
		id := net.Paper(i).ID
		norm := NormalizeID(id)
		if norm == id {
			continue
		}
		if _, dup := e.ids[norm]; !dup {
			e.ids[norm] = i
		}
	}
	return e, nil
}

// ForRanking is Compute with the error funneled into a log line, for
// callers that go on without indicators when they fail. Returns nil
// when cfg.Enabled is false.
func ForRanking(net *graph.Network, attrank []float64, rankedAt int, cfg Config, logf func(string, ...any)) *Epoch {
	if !cfg.Enabled {
		return nil
	}
	e, err := Compute(net, attrank, rankedAt, cfg)
	if err != nil {
		if logf != nil {
			logf("impact: epoch indicators skipped: %v", err)
		}
		return nil
	}
	return e
}
