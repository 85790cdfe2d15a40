package service

import (
	"net/http"
	"strings"

	"attrank/internal/impact"
	"attrank/internal/ingest"
)

// Impact endpoints (DESIGN.md §15):
//
//	GET  /v1/impact/{id}   multi-indicator view of one paper
//	POST /v1/impact/batch  {"ids": [...]} → the same view for up to
//	                       maxImpactBatch papers in one round trip
//
// Both serve the CURRENT epoch view's impact state, and report the full
// epoch its classes come from ("epoch", "ranked_at"). A live full epoch
// is published before its indicators are computed, carrying the
// previous full epoch's until its own are attached, and a push epoch
// carries its full epoch's: whenever the classes' epoch is not the
// view's, the response says "stale" (with the view's score-error bound
// on a push epoch) rather than recomputing thresholds. A paper newer
// than the carried classes answers 503 with Retry-After until they are
// attached (item-wise in a batch). A server without indicators enabled
// answers 503.
const (
	// maxImpactBatch bounds one batch request; larger batches are a
	// client bug, not a load problem, and answer 400.
	maxImpactBatch = 1000
)

type indicatorBody struct {
	Score float64 `json:"score"`
	Class string  `json:"class"`
}

type impactBody struct {
	ID string `json:"id"`
	// Epoch and RankedAt name the full epoch the classes come from.
	Epoch    uint64 `json:"epoch"`
	RankedAt int    `json:"ranked_at"`
	// Stale marks classes carried forward from an earlier full epoch
	// than the view's; Staleness is the view's L1 score-error bound (the
	// classes themselves are exact as of their epoch).
	Stale     bool    `json:"stale,omitempty"`
	Staleness float64 `json:"staleness,omitempty"`

	Popularity indicatorBody `json:"popularity"`
	Influence  indicatorBody `json:"influence"`
	Impulse    indicatorBody `json:"impulse"`
	CC         indicatorBody `json:"cc"`
}

type impactBatchReq struct {
	IDs []string `json:"ids"`
}

type impactBatchItem struct {
	ID    string      `json:"id"`
	Error string      `json:"error,omitempty"`
	Body  *impactBody `json:"impact,omitempty"`
}

type impactBatchBody struct {
	Epoch     uint64            `json:"epoch"`
	RankedAt  int               `json:"ranked_at"`
	Stale     bool              `json:"stale,omitempty"`
	Staleness float64           `json:"staleness,omitempty"`
	Results   []impactBatchItem `json:"results"`
}

// requireImpact is requireView plus the indicator-layer gate.
func (s *Server) requireImpact(w http.ResponseWriter) (*ingest.Ranking, *impact.Epoch) {
	v := s.requireView(w)
	if v == nil {
		return nil, nil
	}
	if v.Impact == nil {
		s.writeError(w, http.StatusServiceUnavailable,
			"impact indicators not enabled (start attrank-serve with -indicators)")
		return nil, nil
	}
	return v, v.Impact
}

// resolveImpactID maps an external id to a paper index: exact corpus id
// first, then the impact epoch's normalized DOI-like mapping. covered
// is false for a paper of the view that the epoch's classes do not
// cover yet (added since the full epoch they come from).
func resolveImpactID(v *ingest.Ranking, e *impact.Epoch, id string) (idx int32, ok, covered bool) {
	if idx, ok = v.Net.Lookup(id); !ok {
		idx, ok = e.Resolve(v.Net, id)
	}
	return idx, ok, int(idx) < e.Papers()
}

// pendingImpact is the answer for a paper the served classes do not
// cover yet.
const pendingImpact = "indicators for this paper are not computed yet"

// impactBodyOf renders one paper's indicator view; idx must come from
// the same view's resolution.
func impactBodyOf(v *ingest.Ranking, e *impact.Epoch, idx int32) impactBody {
	one := func(ind impact.Indicator) indicatorBody {
		return indicatorBody{
			Score: e.Scores(ind)[idx],
			Class: e.Class(ind, idx).String(),
		}
	}
	return impactBody{
		ID:         v.Net.Paper(idx).ID,
		Epoch:      v.ImpactEpoch,
		RankedAt:   e.RankedAt,
		Stale:      v.ImpactEpoch != v.Epoch,
		Staleness:  v.Staleness,
		Popularity: one(impact.Popularity),
		Influence:  one(impact.Influence),
		Impulse:    one(impact.Impulse),
		CC:         one(impact.CitationCount),
	}
}

// handleImpact dispatches the /v1/impact/ subtree: the reserved "batch"
// suffix is the POST endpoint, anything else is a paper id.
func (s *Server) handleImpact(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/impact/batch" {
		s.handleImpactBatch(w, r)
		return
	}
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	v, e := s.requireImpact(w)
	if v == nil {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/impact/")
	if id == "" {
		s.writeError(w, http.StatusBadRequest, "missing paper id")
		return
	}
	idx, ok, covered := resolveImpactID(v, e, id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown paper %q", id)
		return
	}
	if !covered {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "%s: %q", pendingImpact, id)
		return
	}
	s.writeJSON(w, http.StatusOK, impactBodyOf(v, e, idx))
}

// handleImpactBatch serves many ids in one request (POST
// /v1/impact/batch). Unknown ids, and papers the classes do not cover
// yet, fail item-wise, never the batch;
// duplicate ids are served independently. The id count is bounded so a
// batch stays one bounded unit of work under admission control.
func (s *Server) handleImpactBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req impactBatchReq
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		s.writeError(w, http.StatusBadRequest, "ids must name at least one paper")
		return
	}
	if len(req.IDs) > maxImpactBatch {
		s.writeError(w, http.StatusBadRequest, "batch of %d ids exceeds the %d limit", len(req.IDs), maxImpactBatch)
		return
	}
	v, e := s.requireImpact(w)
	if v == nil {
		return
	}
	out := impactBatchBody{
		Epoch:     v.ImpactEpoch,
		RankedAt:  e.RankedAt,
		Stale:     v.ImpactEpoch != v.Epoch,
		Staleness: v.Staleness,
		Results:   make([]impactBatchItem, 0, len(req.IDs)),
	}
	for _, id := range req.IDs {
		item := impactBatchItem{ID: id}
		switch idx, ok, covered := resolveImpactID(v, e, id); {
		case !ok:
			item.Error = "unknown paper"
		case !covered:
			item.Error = pendingImpact
		default:
			b := impactBodyOf(v, e, idx)
			item.Body = &b
		}
		out.Results = append(out.Results, item)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// EnableIndicators turns the multi-indicator layer on for a static-mode
// server (live and replica servers inherit it from the ingest pipeline's
// configuration instead). The indicators are attached to the published
// scores as the next epoch, without re-ranking them.
func (s *Server) EnableIndicators(cfg impact.Config) error {
	cfg.Enabled = true
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if st, ok := s.src.(*staticSource); ok {
		return st.enableIndicators(cfg)
	}
	return nil
}
