// Package service exposes a ranked citation corpus over HTTP — the
// deployment shape of AttRank as a scholarly-search backend. The server
// serves every read from an immutable, atomically swapped epoch view
// (ingest.Ranking), so readers never observe a half-built state while the
// corpus is re-ranked behind them.
//
// Read endpoints:
//
//	GET /v1/stats            corpus statistics and ranking metadata (cached per epoch)
//	GET /v1/top?n=20&offset=0  a page of the ranking with scores and citations
//	GET /v1/paper/{id}       one paper: metadata, score, rank, explanation
//	GET /v1/compare?a=x&b=y  two papers side by side
//	GET /v1/authors?n=20     top authors by aggregated impact
//	GET /v1/related/{id}     related papers (co-citation + coupling)
//	GET /v1/epoch            ranking epoch, WAL size, pending mutations, last re-rank cost
//	GET /metrics             Prometheus text-format metrics (internal/obs registry)
//	GET /healthz             process liveness (always 200)
//	GET /readyz              200 once an initial ranking is published
//	POST /v1/refresh         re-rank (warm-started) and report iterations
//
// Write endpoints (enabled when the server is attached to a live
// ingester via NewLive; a static server answers 503):
//
//	POST /v1/papers          {"id": ..., "year": ..., "authors": [...], "venue": ...}
//	POST /v1/citations       {"citing": ..., "cited": ...}
//	POST /v1/batch           {"papers": [...], "citations": [...]}
//
// All responses are JSON; errors use {"error": "..."} with conventional
// status codes.
//
// Overload protection (ConfigureAdmission, DESIGN.md §10): bounded
// concurrency with a short FIFO wait queue, load shedding with 429/503 +
// Retry-After, write backpressure keyed off the ingest pipeline, and
// per-request deadlines. /healthz, /readyz and /metrics are exempt so
// probes and scrapes keep answering while the server sheds.
package service

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"attrank/internal/authors"
	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/ingest"
	"attrank/internal/obs"
)

// Server serves a ranked view of a citation corpus. It is safe for
// concurrent use. Two modes share every endpoint:
//
//   - static (New): one immutable network ranked at startup; /v1/refresh
//     re-ranks it in place and write endpoints are disabled.
//   - live (NewLive): reads follow the attached ingester's published
//     epochs and writes stream mutations into it.
type Server struct {
	params core.Params
	logf   func(format string, args ...any)

	adm *admission // overload protection; nil = no admission control

	ing *ingest.Ingester // nil in static mode

	// repl marks follower mode (NewReplica): reads come from the
	// replica's views, writes answer 503, and staleness is gated by the
	// admission layer. replHandler is the leader side: the replication
	// wire endpoints mounted under /repl/ (AttachReplication).
	repl        *replicaState
	replHandler http.Handler

	// impactCfg enables the /v1/impact indicator layer in static mode
	// (EnableIndicators); live and replica servers get impact state from
	// the published Rankings instead.
	impactCfg impact.Config

	// Static-mode state: the network is fixed, but /v1/refresh still
	// re-ranks (warm-started) and publishes a new epoch view.
	staticMu      sync.Mutex // serializes static refreshes
	net           *graph.Network
	now           int
	tracker       *core.Tracker
	staticEpoch   uint64
	staticView    atomicRanking
	staticLastDur time.Duration
}

// atomicRanking is a tiny typed wrapper so the zero Server is useful.
type atomicRanking struct {
	mu sync.RWMutex
	r  *ingest.Ranking
}

func (a *atomicRanking) Load() *ingest.Ranking {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.r
}

func (a *atomicRanking) Store(r *ingest.Ranking) {
	a.mu.Lock()
	a.r = r
	a.mu.Unlock()
}

// New ranks the network at time now with the given parameters and
// returns a ready static-mode Server.
func New(net *graph.Network, now int, params core.Params) (*Server, error) {
	tracker, err := core.NewTracker(params)
	if err != nil {
		return nil, err
	}
	s := &Server{params: params, net: net, now: now, tracker: tracker, logf: log.Printf}
	if err := s.refreshStatic(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewLive returns a Server whose corpus, rankings and write path are
// backed by the ingester. The ingester publishes epochs in the
// background; the server is ready as soon as the first one exists (for
// an initially empty corpus, /readyz reports 503 until the first paper
// is ranked).
func NewLive(ing *ingest.Ingester) *Server {
	return &Server{params: ing.Params(), ing: ing, logf: log.Printf}
}

// SetLogf redirects the request log (nil silences it).
func (s *Server) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// view returns the current epoch view, or nil if no ranking has been
// published yet (live mode over an initially empty corpus).
func (s *Server) view() *ingest.Ranking {
	if s.repl != nil {
		return s.repl.src.Ranking()
	}
	if s.ing != nil {
		return s.ing.Ranking()
	}
	return s.staticView.Load()
}

// refreshStatic re-ranks the static network (warm-started) and publishes
// a fresh epoch view, stats included, so serving them is lock-free.
func (s *Server) refreshStatic() error {
	s.staticMu.Lock()
	defer s.staticMu.Unlock()
	started := time.Now()
	res, err := s.tracker.Update(s.net, s.now)
	if err != nil {
		return err
	}
	s.staticEpoch++
	s.staticLastDur = time.Since(started)
	s.staticView.Store(ingest.FullRanking(s.staticEpoch, s.net, res, s.now, s.impactCfg, s.logf))
	return nil
}

// ListenAndServe runs the service on addr until the context is
// cancelled, then shuts down gracefully (draining in-flight requests for
// up to 5 seconds). It returns nil on a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	return Serve(ctx, addr, s.Handler())
}

// Fixed http.Server lifecycle bounds. The read timeouts exist for
// slow-client protection: without them a client trickling its request
// pins a connection — and under admission control, an in-flight slot —
// indefinitely.
const (
	readHeaderTimeout = 5 * time.Second  // reading the request headers
	readTimeout       = 30 * time.Second // the full request; a write batch may be megabytes
	idleTimeout       = 2 * time.Minute  // a keep-alive connection sitting idle
	// shutdownGrace bounds the graceful drain after the context is
	// cancelled; in-flight requests past it are abandoned.
	shutdownGrace = 5 * time.Second
)

// ServeOptions tunes the http.Server lifecycle. A zero field selects
// its documented default.
type ServeOptions struct {
	// WriteTimeout bounds writing the response, measured from the end of
	// the header read. It must comfortably exceed the admission deadline
	// plus the longest queue wait, or slow-but-admitted requests are
	// killed mid-response. Default 60s.
	WriteTimeout time.Duration
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 60 * time.Second
	}
	return o
}

// Serve runs handler on addr until the context is cancelled, then shuts
// down gracefully (draining in-flight requests). It exists separately
// from Server.ListenAndServe so attrank-serve can mount extras — the
// pprof handlers behind its -pprof flag — around the service handler
// while keeping the same lifecycle.
func Serve(ctx context.Context, addr string, handler http.Handler) error {
	return ServeWith(ctx, addr, handler, ServeOptions{})
}

// ServeWith is Serve with explicit lifecycle options.
func ServeWith(ctx context.Context, addr string, handler http.Handler, opts ServeOptions) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ServeListener(ctx, ln, handler, opts)
}

// ServeListener runs handler on an existing listener until the context
// is cancelled, then shuts down gracefully: the listener closes, idle
// connections are torn down, and in-flight requests drain for up to
// shutdownGrace before the server gives up on them. It returns nil
// on a clean shutdown (every in-flight request got its response). The
// end-to-end benchmark (benchmark/deploy.go) and attrank-bench -impact
// use the listener form to bind port 0 and learn the real address.
func ServeListener(ctx context.Context, ln net.Listener, handler http.Handler, opts ServeOptions) error {
	opts = opts.withDefaults()
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      opts.WriteTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}

// Handler returns the HTTP handler for the service, wrapped in the
// admission-control middleware when ConfigureAdmission was called and
// always in the telemetry middleware (per-route metrics + request
// logging). Telemetry sits outermost so shed responses are counted and
// logged like any other.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/top", s.handleTop)
	mux.HandleFunc("/v1/paper/", s.handlePaper)
	mux.HandleFunc("/v1/compare", s.handleCompare)
	mux.HandleFunc("/v1/refresh", s.handleRefresh)
	mux.HandleFunc("/v1/authors", s.handleAuthors)
	mux.HandleFunc("/v1/related/", s.handleRelated)
	mux.HandleFunc("/v1/papers", s.handleAddPaper)
	mux.HandleFunc("/v1/citations", s.handleAddCitation)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/impact/", s.handleImpact)
	mux.HandleFunc("/v1/epoch", s.handleEpoch)
	mux.Handle("/metrics", obs.Handler())
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	if s.replHandler != nil {
		mux.Handle("/repl/", s.replHandler)
	}
	h := http.Handler(mux)
	if s.adm != nil {
		h = s.withAdmission(h)
	}
	return s.withTelemetry(h)
}

// requireView fetches the current epoch view, answering 503 when no
// ranking exists yet. Every read handler resolves IDs and scores against
// the one view it got here, so concurrent epoch swaps cannot mix state.
func (s *Server) requireView(w http.ResponseWriter) *ingest.Ranking {
	v := s.view()
	if v == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no ranking published yet (corpus empty)")
	}
	return v
}

type relatedBody struct {
	ID      string `json:"id"`
	Rank    int    `json:"rank"`
	CoCited int    `json:"co_cited"`
	Coupled int    `json:"coupled"`
}

// handleRelated serves the papers most related to one paper by
// co-citation and bibliographic coupling (GET /v1/related/{id}?n=10).
func (s *Server) handleRelated(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	v := s.requireView(w)
	if v == nil {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/related/")
	if id == "" {
		s.writeError(w, http.StatusBadRequest, "missing paper id")
		return
	}
	idx, ok := v.Net.Lookup(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown paper %q", id)
		return
	}
	n := 10
	if q := r.URL.Query().Get("n"); q != "" {
		val, err := strconv.Atoi(q)
		if err != nil || val < 1 || val > 100 {
			s.writeError(w, http.StatusBadRequest, "n must be an integer in [1, 100]")
			return
		}
		n = val
	}
	var out []relatedBody
	for _, rel := range v.Net.RelatedPapers(idx, n) {
		out = append(out, relatedBody{
			ID:      v.Net.Paper(rel.Paper).ID,
			Rank:    v.Positions[rel.Paper] + 1,
			CoCited: rel.CoCited,
			Coupled: rel.Coupled,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

type statsBody struct {
	Papers    int     `json:"papers"`
	Citations int     `json:"citations"`
	Authors   int     `json:"authors"`
	Venues    int     `json:"venues"`
	MinYear   int     `json:"min_year"`
	MaxYear   int     `json:"max_year"`
	Now       int     `json:"now"`
	Epoch     uint64  `json:"epoch"`
	Alpha     float64 `json:"alpha"`
	Beta      float64 `json:"beta"`
	Gamma     float64 `json:"gamma"`
	Years     int     `json:"attention_years"`
	W         float64 `json:"w"`
	Iters     int     `json:"iterations"`
	Converged bool    `json:"converged"`
}

// handleStats serves the per-epoch cached corpus statistics: the full
// O(V+E) walk ran once when the epoch was published, not per request.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	v := s.requireView(w)
	if v == nil {
		return
	}
	st := v.Stats
	p := s.rankParams()
	s.writeJSON(w, http.StatusOK, statsBody{
		Papers: st.Papers, Citations: st.Edges, Authors: st.Authors,
		Venues: st.Venues, MinYear: st.MinYear, MaxYear: st.MaxYear,
		Now: v.RankedAt, Epoch: v.Epoch,
		Alpha: p.Alpha, Beta: p.Beta,
		Gamma: p.Gamma, Years: p.AttentionYears,
		W: p.W, Iters: v.Result.Iterations, Converged: v.Result.Converged,
	})
}

type paperBody struct {
	ID           string   `json:"id"`
	Year         int      `json:"year"`
	Venue        string   `json:"venue,omitempty"`
	Authors      []string `json:"authors,omitempty"`
	Score        float64  `json:"score"`
	Rank         int      `json:"rank"` // 1-based
	Citations    int      `json:"citations"`
	Recent3y     int      `json:"recent_citations_3y"`
	FlowPct      float64  `json:"flow_pct"`
	AttentionPct float64  `json:"attention_pct"`
	RecencyPct   float64  `json:"recency_pct"`
}

// paperBody renders one paper from a single epoch view; idx must come
// from the same view's Lookup.
func (s *Server) paperBody(v *ingest.Ranking, idx int32) (paperBody, error) {
	p := v.Net.Paper(idx)
	b := paperBody{
		ID: p.ID, Year: p.Year, Venue: v.Net.VenueName(p.Venue),
		Score: v.Result.Scores[idx], Rank: v.Positions[idx] + 1,
		Citations: v.Net.InDegree(idx),
		Recent3y:  v.Net.CitationsIn(idx, v.RankedAt-2, v.RankedAt),
	}
	for _, a := range p.Authors {
		b.Authors = append(b.Authors, v.Net.AuthorName(a))
	}
	e, err := core.Explain(v.Net, v.Result, s.rankParams(), idx)
	if err != nil {
		return b, err
	}
	if e.Score > 0 {
		b.FlowPct = 100 * e.Flow / e.Score
		b.AttentionPct = 100 * e.Attention / e.Score
		b.RecencyPct = 100 * e.Recency / e.Score
	}
	return b, nil
}

// handleTop serves one page of the ranking (GET /v1/top?n=20&offset=0):
// the slice [offset, offset+n) of the epoch's published order, each
// entry rendered like /v1/paper. Nothing here scans the corpus; the
// order was sorted once when the epoch was published.
func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	v := s.requireView(w)
	if v == nil {
		return
	}
	q := r.URL.Query()
	n := 20
	if raw := q.Get("n"); raw != "" {
		val, err := strconv.Atoi(raw)
		if err != nil || val < 1 || val > 1000 {
			s.writeError(w, http.StatusBadRequest, "n must be an integer in [1, 1000]")
			return
		}
		n = val
	}
	offset := 0
	if raw := q.Get("offset"); raw != "" {
		val, err := strconv.Atoi(raw)
		if err != nil || val < 0 || val > 10000 {
			s.writeError(w, http.StatusBadRequest, "offset must be an integer in [0, 10000]")
			return
		}
		offset = val
	}
	// O(n) per request whatever the corpus size; a page past the end
	// of the corpus is empty, not an error.
	start, end := min(offset, len(v.Order)), min(offset+n, len(v.Order))
	out := make([]paperBody, 0, end-start)
	for _, idx := range v.Order[start:end] {
		b, err := s.paperBody(v, int32(idx))
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "explain: %v", err)
			return
		}
		out = append(out, b)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePaper(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	v := s.requireView(w)
	if v == nil {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/paper/")
	if id == "" {
		s.writeError(w, http.StatusBadRequest, "missing paper id")
		return
	}
	idx, ok := v.Net.Lookup(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown paper %q", id)
		return
	}
	b, err := s.paperBody(v, idx)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "explain: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, b)
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	v := s.requireView(w)
	if v == nil {
		return
	}
	q := r.URL.Query()
	aID, bID := q.Get("a"), q.Get("b")
	if aID == "" || bID == "" {
		s.writeError(w, http.StatusBadRequest, "need both a and b query parameters")
		return
	}
	aIdx, ok := v.Net.Lookup(aID)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown paper %q", aID)
		return
	}
	bIdx, ok := v.Net.Lookup(bID)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown paper %q", bID)
		return
	}
	aBody, err := s.paperBody(v, aIdx)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "explain: %v", err)
		return
	}
	bBody, err := s.paperBody(v, bIdx)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "explain: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]paperBody{"a": aBody, "b": bBody})
}

type authorBody struct {
	Name   string  `json:"name"`
	Rank   int     `json:"rank"`
	Impact float64 `json:"impact"` // fractional share of the corpus impact
	Papers int     `json:"papers"`
}

// handleAuthors serves the top authors by fractionally aggregated
// AttRank impact (GET /v1/authors?n=20).
func (s *Server) handleAuthors(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	v := s.requireView(w)
	if v == nil {
		return
	}
	if v.Net.NumAuthors() == 0 {
		s.writeError(w, http.StatusNotFound, "network has no author metadata")
		return
	}
	n := 20
	if q := r.URL.Query().Get("n"); q != "" {
		val, err := strconv.Atoi(q)
		if err != nil || val < 1 || val > 1000 {
			s.writeError(w, http.StatusBadRequest, "n must be an integer in [1, 1000]")
			return
		}
		n = val
	}
	impact, err := authors.AuthorScores(v.Net, v.Result.Scores, authors.Fractional)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "aggregating: %v", err)
		return
	}
	paperCount := make([]int, v.Net.NumAuthors())
	v.Net.PaperAuthorEdges(func(_, a int32) { paperCount[a]++ })

	var out []authorBody
	for rank, e := range authors.Top(impact, n) {
		out = append(out, authorBody{
			Name:   v.Net.AuthorName(e.Index),
			Rank:   rank + 1,
			Impact: e.Score,
			Papers: paperCount[e.Index],
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

type refreshBody struct {
	Epoch      uint64 `json:"epoch"`
	Iterations int    `json:"iterations"`
	Converged  bool   `json:"converged"`
}

// handleRefresh forces a re-rank: through the ingester in live mode
// (compacting pending mutations first), in place in static mode. It is
// the slowest endpoint — a full compaction plus power iteration — so it
// is the one that honours the admission deadline: when the request
// context expires mid-re-rank the client gets 503 + Retry-After while
// the re-rank itself finishes in the background.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.repl != nil {
		s.writeError(w, http.StatusServiceUnavailable,
			"read-only replica: POST /v1/refresh to the leader at %s", s.repl.src.Info().Leader)
		return
	}
	var err error
	if s.ing != nil {
		err = s.ing.FlushContext(r.Context())
	} else {
		err = s.refreshStatic()
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "refresh: re-rank still running: %v", err)
		return
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "refresh: %v", err)
		return
	}
	v := s.requireView(w)
	if v == nil {
		return
	}
	s.writeJSON(w, http.StatusOK, refreshBody{
		Epoch: v.Epoch, Iterations: v.Result.Iterations, Converged: v.Result.Converged,
	})
}
