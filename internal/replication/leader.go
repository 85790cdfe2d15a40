package replication

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"attrank/internal/dataio"
	"attrank/internal/ingest"
)

// LeaderConfig tunes the leader's shipping endpoints. The zero value is
// production-ready.
type LeaderConfig struct {
	// Poll is how long a stream sleeps when it has caught up with the
	// durable end of the log (default 5ms). A publication wakes it
	// sooner.
	Poll time.Duration
	// Heartbeat is the cadence of epoch/offset heartbeats on an idle
	// stream (default 500ms). Heartbeats are what keep a follower's lag
	// measurement honest when no writes are flowing.
	Heartbeat time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// chunkSize is the data-frame payload size, and bounds an epoch frame's
// too. Each chunk read holds the ingester lock, so much larger values
// would stall writers.
const chunkSize = 64 << 10

// The replication endpoints bypass the service's admission control, so
// they carry their own bounds. An open /repl/wal stream holds a
// goroutine and a chunkSize buffer for as long as its client stays; a
// /repl/state download pins an epoch's Ranking until it is written out.
// Beyond either cap the leader answers 503 with Retry-After, and a
// follower's reconnect loop backs off and retries.
const (
	maxStreams    = 64
	maxBootstraps = 4
)

// Leader serves the replication wire protocol for one Ingester. Mount
// Handler under /repl/ (the service layer does this via
// Server.AttachReplication).
type Leader struct {
	ing  *ingest.Ingester
	cfg  LeaderConfig
	logf func(string, ...any)

	streams, bootstraps chan struct{} // semaphores of maxStreams, maxBootstraps
}

// NewLeader wraps an ingester with the replication endpoints.
func NewLeader(ing *ingest.Ingester, cfg LeaderConfig) *Leader {
	if cfg.Poll <= 0 {
		cfg.Poll = 5 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Leader{
		ing: ing, cfg: cfg, logf: logf,
		streams:    make(chan struct{}, maxStreams),
		bootstraps: make(chan struct{}, maxBootstraps),
	}
}

// acquire takes a slot of sem, or answers 503, counts the rejection
// under endpoint ("wal" or "state") and reports false.
func acquire(w http.ResponseWriter, sem chan struct{}, what, endpoint string) bool {
	select {
	case sem <- struct{}{}:
		return true
	default:
		mRejected.With(endpoint).Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "too many open "+what, http.StatusServiceUnavailable)
		return false
	}
}

// Handler returns the /repl/* endpoints.
func (l *Leader) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(statePath, l.handleState)
	mux.HandleFunc(walPath, l.handleWAL)
	return mux
}

// handleState streams a bootstrap: header line, corpus, the epoch's
// block, with its influence when its indicators are attached. The
// ReplState call guarantees the cursor in the header matches
// the payload — a follower that seeds from this response and then
// streams from header.Offset misses nothing and re-applies nothing.
func (l *Leader) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !acquire(w, l.bootstraps, "bootstraps", "state") {
		return
	}
	defer func() { <-l.bootstraps }()
	rank, cur, err := l.ing.ReplState()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	hdr := stateHeader{
		Instance: cur.Instance,
		Gen:      cur.Gen,
		Offset:   cur.Offset,
		Epoch:    cur.Epoch,
		RankedAt: rank.RankedAt,
		Papers:   rank.Net.N(),
		Params:   wireParamsOf(l.ing.Params()),
		Impact:   wireImpactOf(l.ing.ImpactConfig()),
	}
	if err := writeHeader(w, hdr); err != nil {
		return // client gone; nothing to clean up
	}
	if err := dataio.WriteBinary(w, rank.Net); err != nil {
		return
	}
	if err := writeBlock(w, blockOf(rank, true), make([]byte, chunkSize)); err != nil {
		return
	}
	mBootstrapsServed.Inc()
	l.logf("repl: bootstrap served: epoch %d, %d papers, offset %d", hdr.Epoch, hdr.Papers, hdr.Offset)
}

// handleWAL streams log bytes from (instance, gen, from) until the
// client goes away or the generation rotates. Between them it sends the
// block of each epoch published past have (the epoch the follower
// already publishes) once the stream has shipped the epoch's marker:
// at stream open for the newest epoch, and after each publication,
// which wakes the stream. The last full epoch's indicator block follows
// its full block once the leader has attached them (the attach
// republishes, which wakes the stream). A cursor the leader cannot
// serve — wrong instance (leader restarted) or wrong generation (log
// compacted) — answers 409 so the follower knows to re-bootstrap rather
// than retry.
func (l *Leader) handleWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	instance, err1 := strconv.ParseUint(q.Get("instance"), 10, 64)
	gen, err2 := strconv.ParseUint(q.Get("gen"), 10, 64)
	from, err3 := strconv.ParseInt(q.Get("from"), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || from < ingest.WALHeaderSize {
		http.Error(w, "bad cursor: need instance, gen and from=<offset>", http.StatusBadRequest)
		return
	}
	var have uint64
	if h := q.Get("have"); h != "" {
		var err error
		if have, err = strconv.ParseUint(h, 10, 64); err != nil {
			http.Error(w, "bad have=<epoch>", http.StatusBadRequest)
			return
		}
	}
	cur := l.ing.ReplCursor()
	if instance != cur.Instance || gen != cur.Gen {
		http.Error(w, "cursor from another instance or generation; re-bootstrap via /repl/state",
			http.StatusConflict)
		return
	}
	if !acquire(w, l.streams, "streams", "wal") {
		return
	}
	defer func() { <-l.streams }()
	// The stream outlives any per-request write timeout the surrounding
	// http.Server sets for ordinary responses; followers resume cleanly
	// if clearing it is unsupported and the stream gets cut anyway.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	mStreamsOpen.Add(1)
	defer mStreamsOpen.Add(-1)
	l.logf("repl: stream open from offset %d (gen %d)", from, gen)

	ctx := r.Context()
	buf := make([]byte, chunkSize)
	// An immediate heartbeat tells the follower the leader's epoch
	// before any data flows.
	lastBeat := time.Time{}
	beat := func() bool {
		c := l.ing.ReplCursor()
		if err := WriteFrame(w, frameHeartbeat, heartbeatPayload(c.Epoch, c.Offset)); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		lastBeat = time.Now()
		return true
	}
	if !beat() {
		return
	}
	off := from
	// sent is the newest epoch whose block the follower holds: the one
	// it reported publishing, then each block this stream carried.
	// sentInd is the full epoch whose indicator block this stream
	// carried.
	sent, sentInd := have, uint64(0)
	for {
		if ctx.Err() != nil {
			return
		}
		_, _, published := l.ing.ReplEpochs()
		n, err := l.ing.ReadWALAt(gen, off, buf)
		wrote := n > 0
		if n > 0 {
			if werr := WriteFrame(w, frameData, buf[:n]); werr != nil {
				return
			}
			off += int64(n)
			mBytesShipped.Add(int64(n))
		}
		// Blocks go out after the bytes, read afresh, so each names the
		// newest epoch the stream has shipped the marker of. The last
		// full epoch goes first: a push epoch's block builds on it.
		full, latest, _ := l.ing.ReplEpochs()
		for _, e := range [2]*ingest.ReplEpoch{full, latest} {
			if e == nil || e.Ranking.Epoch <= sent || e.Cursor.Gen != gen || off < e.Cursor.Offset {
				continue
			}
			if werr := writeBlock(w, blockOf(e.Ranking, false), buf); werr != nil {
				return
			}
			sent, wrote = e.Ranking.Epoch, true
			mEpochBlocksShipped.Inc()
		}
		if full != nil && ownIndicators(full.Ranking) && full.Ranking.Epoch <= sent && full.Ranking.Epoch > sentInd {
			if werr := writeBlock(w, indicatorsOf(full.Ranking), buf); werr != nil {
				return
			}
			sentInd, wrote = full.Ranking.Epoch, true
			mEpochBlocksShipped.Inc()
		}
		if wrote && flusher != nil {
			flusher.Flush()
		}
		if n > 0 {
			continue
		}
		switch {
		case err == nil || err == io.EOF:
			// Caught up with the durable end: heartbeat if due, then
			// wait for a publication or poll for new appends.
			if time.Since(lastBeat) >= l.cfg.Heartbeat && !beat() {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-published:
			case <-time.After(l.cfg.Poll):
			}
		case errors.Is(err, ingest.ErrWALRotated):
			// A snapshot compacted the log away mid-stream. Closing the
			// stream sends the follower back through reconnect, where
			// the 409 tells it to re-bootstrap.
			l.logf("repl: stream at offset %d ended: generation rotated", off)
			return
		default:
			l.logf("repl: stream read at offset %d: %v", off, err)
			return
		}
	}
}
