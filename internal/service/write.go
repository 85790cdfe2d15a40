package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"attrank/internal/ingest"
)

// maxWriteBody bounds write-request bodies (16 MiB matches the WAL's
// per-record ceiling comfortably).
const maxWriteBody = 16 << 20

type errorBody struct {
	Error string `json:"error"`
}

// writeJSON encodes the response body. Encoding failures after the
// header is out cannot change the status anymore; they are logged so
// they do not vanish silently.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.logf("service: encoding response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// statusRecorder captures the status code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// Flush forwards to the underlying writer. Without it the recorder hides
// the connection's http.Flusher and the replication WAL stream mounted
// under /repl/ buffers its frames instead of pushing them: a follower
// would see neither heartbeats nor data until 4 KiB accumulated.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach through the recorder for
// per-stream deadline control.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// withTelemetry is the request middleware: every request lands in the
// per-route count and latency metrics, and every request except the
// Prometheus scrape itself gets a request-log line (a 15-second scrape
// interval would otherwise bury real traffic in /metrics noise).
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		mInFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		mInFlight.Add(-1)
		route := routeLabel(r.URL.Path)
		mRequestsTotal.With(route, strconv.Itoa(rec.status)).Inc()
		mRequestSeconds.With(route).ObserveSince(started)
		if r.URL.Path != "/metrics" {
			s.logf("service: %s %s %d %s", r.Method, r.URL.Path, rec.status, time.Since(started).Round(time.Microsecond))
		}
	})
}

// requireIngester guards the write path: a static server has no durable
// write-ahead log to accept mutations into, and a replica's corpus is
// owned by its leader.
func (s *Server) requireIngester(w http.ResponseWriter) bool {
	if s.repl != nil {
		s.writeError(w, http.StatusServiceUnavailable,
			"read-only replica: send writes to the leader at %s", s.repl.src.Info().Leader)
		return false
	}
	if s.ing == nil {
		s.writeError(w, http.StatusServiceUnavailable, "read-only server: start attrank-serve with -wal to enable writes")
		return false
	}
	return true
}

// decodeBody parses a JSON request body into dst with a size cap.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWriteBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

type paperReq struct {
	ID      string   `json:"id"`
	Year    int      `json:"year"`
	Authors []string `json:"authors"`
	Venue   string   `json:"venue"`
}

type citationReq struct {
	Citing string `json:"citing"`
	Cited  string `json:"cited"`
}

type writeBody struct {
	Status  string `json:"status"` // "accepted" or "duplicate"
	Pending int    `json:"pending"`
}

// handleAddPaper ingests one paper (POST /v1/papers). Duplicates are
// idempotent no-ops reported as status "duplicate".
func (s *Server) handleAddPaper(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.requireIngester(w) {
		return
	}
	var req paperReq
	if !s.decodeBody(w, r, &req) {
		return
	}
	dup, err := s.ing.AddPaper(ingest.PaperMut{ID: req.ID, Year: req.Year, Authors: req.Authors, Venue: req.Venue})
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeOK(w, dup)
}

// handleAddCitation ingests one citation edge (POST /v1/citations).
func (s *Server) handleAddCitation(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.requireIngester(w) {
		return
	}
	var req citationReq
	if !s.decodeBody(w, r, &req) {
		return
	}
	dup, err := s.ing.AddCitation(ingest.CitationMut{Citing: req.Citing, Cited: req.Cited})
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeOK(w, dup)
}

func (s *Server) writeOK(w http.ResponseWriter, dup bool) {
	status := "accepted"
	if dup {
		status = "duplicate"
	}
	s.writeJSON(w, http.StatusOK, writeBody{Status: status, Pending: s.ing.Status().Pending})
}

type batchReq struct {
	Papers    []paperReq    `json:"papers"`
	Citations []citationReq `json:"citations"`
}

type batchItemError struct {
	Kind  string `json:"kind"`  // "paper" or "citation"
	Index int    `json:"index"` // index within its array
	Error string `json:"error"`
}

type batchBody struct {
	Accepted   int              `json:"accepted"`
	Duplicates int              `json:"duplicates"`
	Errors     []batchItemError `json:"errors,omitempty"`
	Pending    int              `json:"pending"`
	Epoch      uint64           `json:"epoch"`
}

// handleBatch ingests papers and citations together (POST /v1/batch).
// Papers are applied before citations, so a citation may reference a
// paper introduced in the same request. Valid items are applied and made
// durable with a single fsync even when other items fail validation; the
// per-item errors come back in the response.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.requireIngester(w) {
		return
	}
	var req batchReq
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Papers)+len(req.Citations) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	muts := make([]ingest.Mutation, 0, len(req.Papers)+len(req.Citations))
	for _, p := range req.Papers {
		muts = append(muts, ingest.Mutation{Kind: ingest.KindPaper,
			Paper: ingest.PaperMut{ID: p.ID, Year: p.Year, Authors: p.Authors, Venue: p.Venue}})
	}
	for _, c := range req.Citations {
		muts = append(muts, ingest.Mutation{Kind: ingest.KindCitation,
			Citation: ingest.CitationMut{Citing: c.Citing, Cited: c.Cited}})
	}
	res, err := s.ing.ApplyBatch(muts)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body := batchBody{Accepted: res.Accepted, Duplicates: res.Duplicates}
	for _, e := range res.Errors {
		item := batchItemError{Kind: "paper", Index: e.Index, Error: e.Msg}
		if e.Index >= len(req.Papers) {
			item.Kind = "citation"
			item.Index = e.Index - len(req.Papers)
		}
		body.Errors = append(body.Errors, item)
	}
	st := s.ing.Status()
	body.Pending = st.Pending
	body.Epoch = st.Epoch
	s.writeJSON(w, http.StatusOK, body)
}

type epochBody struct {
	Epoch          uint64  `json:"epoch"`
	Live           bool    `json:"live"`
	Papers         int     `json:"papers"`
	Citations      int     `json:"citations"`
	Pending        int     `json:"pending"`
	WALBytes       int64   `json:"wal_bytes"`
	LastRerankMs   float64 `json:"last_rerank_ms"`
	LastIterations int     `json:"last_rerank_iterations"`
	Snapshots      uint64  `json:"snapshots"`
	// Incremental-ranking state (zero unless the push path is enabled;
	// see ingest.Config.PushTol).
	PushEpochs  uint64  `json:"push_epochs,omitempty"`
	PushBacklog int     `json:"push_backlog,omitempty"`
	Staleness   float64 `json:"staleness,omitempty"`
	// ImpactEpoch is the full epoch the served indicators come from
	// (absent while indicators are off or none are attached yet).
	ImpactEpoch uint64 `json:"impact_epoch,omitempty"`
}

// handleEpoch reports the ranking epoch and ingestion pipeline state
// (GET /v1/epoch). A static server reports its refresh epoch with an
// empty pipeline.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.repl != nil {
		s.handleReplicaEpoch(w)
		return
	}
	if s.ing != nil {
		st := s.ing.Status()
		s.writeJSON(w, http.StatusOK, epochBody{
			Epoch: st.Epoch, Live: true,
			Papers: st.Papers, Citations: st.Citations,
			Pending: st.Pending, WALBytes: st.WALBytes,
			LastRerankMs:   float64(st.LastRerank) / float64(time.Millisecond),
			LastIterations: st.LastIterations,
			Snapshots:      st.Snapshots,
			PushEpochs:     st.PushEpochs,
			PushBacklog:    st.PushBacklog,
			Staleness:      st.Staleness,
			ImpactEpoch:    st.ImpactEpoch,
		})
		return
	}
	v := s.view() // a static server publishes its first epoch in New
	s.writeJSON(w, http.StatusOK, epochBody{
		Epoch: v.Epoch, Papers: v.Stats.Papers, Citations: v.Stats.Edges,
		LastRerankMs:   float64(v.Result.Duration) / float64(time.Millisecond),
		LastIterations: v.Result.Iterations,
		ImpactEpoch:    v.ImpactEpoch,
	})
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 once an initial ranking has
// been published, 503 while the corpus is still empty or recovering.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.repl != nil {
		info, reason := s.replicaReady()
		if reason != "" {
			s.writeError(w, http.StatusServiceUnavailable,
				"%s: %d epochs behind the leader (max %d)", reason, info.EpochLag, s.repl.maxLag)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{
			"status": "ready", "epoch": info.LocalEpoch, "epoch_lag": info.EpochLag,
		})
		return
	}
	if v := s.view(); v != nil {
		s.writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "epoch": v.Epoch})
		return
	}
	s.writeError(w, http.StatusServiceUnavailable, "no ranking published yet")
}
