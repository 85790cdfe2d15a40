// Package attrank is the public API of this repository: an implementation
// of AttRank (Kanellos et al., "Ranking Papers by their Short-Term
// Scientific Impact", ICDE 2021) together with the citation-network
// substrate, the competitor methods it is evaluated against, the ranking
// metrics, the temporal evaluation protocol, and calibrated synthetic
// dataset generators.
//
// # Quick start
//
//	net, err := attrank.LoadNetwork("citations.tsv")
//	w, err := attrank.FitW(net)                        // calibrate recency decay
//	res, err := attrank.Rank(net, net.MaxYear(), attrank.RecommendedParams(w))
//	top := attrank.TopK(res.Scores, 10)                // most-promising papers
//
// See the examples directory for complete programs.
package attrank

import (
	"attrank/internal/authors"
	"attrank/internal/baselines"
	"attrank/internal/core"
	"attrank/internal/dataio"
	"attrank/internal/eval"
	"attrank/internal/graph"
	"attrank/internal/metrics"
	"attrank/internal/rank"
	"attrank/internal/service"
	"attrank/internal/synth"
)

// Core graph types.
type (
	// Network is an immutable citation network; build one with NewBuilder
	// or load one with LoadNetwork.
	Network = graph.Network
	// Builder assembles a Network from papers and citation edges.
	Builder = graph.Builder
	// Paper is the metadata of a single publication.
	Paper = graph.Paper
	// Stats summarizes a network.
	Stats = graph.Stats
)

// NoVenue marks a paper without venue metadata.
const NoVenue = graph.NoVenue

// AttRank types.
type (
	// Params configures AttRank (α, β, γ, attention window y, recency
	// exponent w, iteration controls).
	Params = core.Params
	// Result carries converged AttRank scores plus diagnostics.
	Result = core.Result
)

// Ranking methods.
type (
	// Method is the interface implemented by every ranking method here.
	Method = rank.Method
	// PageRank is the classic damped random-walk baseline.
	PageRank = baselines.PageRank
	// CitationCount ranks by in-degree.
	CitationCount = baselines.CitationCount
	// CiteRank is the network-traffic model of Walker et al. (2007).
	CiteRank = baselines.CiteRank
	// FutureRank is the PageRank+HITS+time model of Sayyadi & Getoor (2009).
	FutureRank = baselines.FutureRank
	// RAM is the retained adjacency matrix method of Ghosh et al. (2011).
	RAM = baselines.RAM
	// ECM is the effective contagion matrix method of Ghosh et al. (2011).
	ECM = baselines.ECM
	// WSDM is the WSDM Cup 2016 winning heuristic of Feng et al.
	WSDM = baselines.WSDM
	// HITS is Kleinberg's hubs-and-authorities (authority scores).
	HITS = baselines.HITS
	// Katz is plain Katz centrality (ECM without citation aging).
	Katz = baselines.Katz
	// TimeAwarePageRank weights citation edges by the publication gap.
	TimeAwarePageRank = baselines.TimeAwarePageRank
)

// Tracker maintains AttRank scores over a growing corpus, warm-starting
// each re-rank from the previous scores.
type Tracker = core.Tracker

// NewTracker returns a Tracker with the given AttRank parameters.
func NewTracker(p Params) (*Tracker, error) { return core.NewTracker(p) }

// Aggregation selects how paper scores are attributed to authors/venues.
type Aggregation = authors.Aggregation

// Aggregation modes for AuthorScores and VenueScores.
const (
	AggSum        = authors.Sum
	AggMean       = authors.Mean
	AggFractional = authors.Fractional
)

// AuthorScores aggregates paper scores into author-level impact scores.
func AuthorScores(net *Network, paperScores []float64, agg Aggregation) ([]float64, error) {
	return authors.AuthorScores(net, paperScores, agg)
}

// VenueScores aggregates paper scores into venue-level impact scores.
func VenueScores(net *Network, paperScores []float64, agg Aggregation) ([]float64, error) {
	return authors.VenueScores(net, paperScores, agg)
}

// Evaluation protocol types.
type (
	// Split is a temporal current/future partition (§4.1 of the paper).
	Split = eval.Split
	// Dataset bundles a synthetic network with its fitted w.
	Dataset = eval.Dataset
)

// Profile describes a synthetic dataset generator configuration.
type Profile = synth.Profile

// NewBuilder returns an empty network builder.
func NewBuilder() *Builder { return graph.NewBuilder() }

// LoadNetwork reads a citation network from a TSV or JSON file (see
// package dataio for the formats).
func LoadNetwork(path string) (*Network, error) { return dataio.LoadFile(path) }

// SaveNetwork writes a citation network to a TSV or JSON file.
func SaveNetwork(path string, net *Network) error { return dataio.SaveFile(path, net) }

// Rank computes AttRank scores for the network's state at time now.
// Repeated ranks of the same *Network reuse a compiled ranking operator
// (normalized matrix, tiled layout, worker pool) behind the scenes; see
// Operator to manage one explicitly.
func Rank(net *Network, now int, p Params) (*Result, error) { return core.Rank(net, now, p) }

// Operator is the compiled form of AttRank over one immutable network:
// matrix state is built once and reused across ranks. Obtain one with
// CompileOperator for long-lived, explicitly managed reuse (a server, a
// sweep); plain Rank manages a small operator cache automatically.
type Operator = core.Operator

// CompileOperator returns a ranking operator for the network. The heavy
// state (normalized matrix, tiled layout, worker pool) is built lazily on
// first use, so compiling is cheap.
func CompileOperator(net *Network) *Operator { return core.Compile(net) }

// RecommendedParams returns a strong general-purpose AttRank setting:
// α=0.2, β=0.5, γ=0.3, y=3, near the optima the paper reports across its
// four datasets. w must be the dataset's fitted recency exponent (≤ 0);
// use FitW to calibrate it.
func RecommendedParams(w float64) Params {
	return Params{Alpha: 0.2, Beta: 0.5, Gamma: 0.3, AttentionYears: 3, W: w}
}

// FitW calibrates the recency exponent of Eq. 3 from the network's
// citation-age distribution, as in §4.2 of the paper.
func FitW(net *Network) (float64, error) { return core.FitWFromNetwork(net, 10) }

// AttentionVector exposes the attention mechanism A of Eq. 2: each
// paper's share of the citations made in the last y years.
func AttentionVector(net *Network, now, y int) []float64 {
	return core.AttentionVector(net, now, y)
}

// Spearman returns the rank correlation of two score vectors (tie-aware).
func Spearman(a, b []float64) (float64, error) { return metrics.Spearman(a, b) }

// NDCG returns the normalized discounted cumulative gain at rank k of a
// score vector against ground-truth gains.
func NDCG(scores, gains []float64, k int) (float64, error) { return metrics.NDCG(scores, gains, k) }

// TopK returns the indices of the k highest-scoring items.
func TopK(scores []float64, k int) []int { return metrics.TopK(scores, k) }

// KendallTau returns Kendall's τ-b rank correlation (tie-corrected).
func KendallTau(a, b []float64) (float64, error) { return metrics.KendallTau(a, b) }

// PrecisionAtK returns the top-k set agreement between a score vector and
// ground-truth gains.
func PrecisionAtK(scores, gains []float64, k int) (float64, error) {
	return metrics.PrecisionAtK(scores, gains, k)
}

// MRR returns the mean reciprocal rank of the gains' top-t items within
// the score vector's ranking.
func MRR(scores, gains []float64, t int) (float64, error) { return metrics.MRR(scores, gains, t) }

// Explanation decomposes one paper's AttRank score into its flow,
// attention and recency components.
type Explanation = core.Explanation

// Explain decomposes paper i's score from a converged Result obtained
// with the same network, time and parameters.
func Explain(net *Network, res *Result, p Params, i int32) (Explanation, error) {
	return core.Explain(net, res, p, i)
}

// Server exposes a ranked corpus over HTTP (see internal/service for the
// endpoint list: /v1/stats, /v1/top, /v1/paper/{id}, /v1/compare,
// /v1/authors, /v1/related/{id}, /v1/refresh).
type Server = service.Server

// NewServer ranks the network and returns an HTTP service over it. Serve
// it with Server.Handler (any http.Server) or Server.ListenAndServe
// (context-driven graceful shutdown).
func NewServer(net *Network, now int, p Params) (*Server, error) {
	return service.New(net, now, p)
}

// NewSplit partitions a network into current/future states at the given
// test ratio in (1, 2], per the paper's evaluation protocol.
func NewSplit(net *Network, ratio float64) (*Split, error) { return eval.NewSplit(net, ratio) }

// GenerateDataset synthesizes one of the four calibrated dataset
// stand-ins ("hep-th", "aps", "pmc", "dblp") at the given scale (1 is the
// default size; smaller is faster).
func GenerateDataset(name string, scale float64) (Dataset, error) {
	return eval.LoadDataset(name, scale)
}

// GenerateNetwork runs the synthetic generator on a custom profile.
func GenerateNetwork(p Profile) (*Network, error) { return synth.Generate(p) }

// DatasetProfiles returns the four built-in dataset profiles.
func DatasetProfiles() []Profile { return synth.Profiles() }
