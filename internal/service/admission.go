package service

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// AdmissionConfig tunes the overload-protection layer (see DESIGN.md
// §10). The zero value of any field selects the documented default; a
// negative MaxPending disables write backpressure.
//
// The policy, in order, for every request except the probe and metric
// exemptions (/healthz, /readyz, /metrics):
//
//  1. Write requests are cheap-rejected with 429 + Retry-After while the
//     ingest pipeline has more than MaxPending uncompacted mutations
//     (backpressure: admitting more writes would only grow the WAL and
//     the re-rank debt).
//  2. Up to MaxInFlight requests execute concurrently. Beyond that,
//     requests wait in a FIFO queue of at most MaxQueue entries for at
//     most MaxWait; a full queue or an expired wait sheds the request
//     with 503 + Retry-After, before any request body is read.
//  3. Admitted requests run under a context deadline of Deadline,
//     propagated to handlers (the /v1/refresh re-rank path observes it).
type AdmissionConfig struct {
	// MaxInFlight bounds concurrently executing requests.
	// Default: 4 × GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds the FIFO admission queue. Keeping it around
	// MaxInFlight keeps accepted-request queue wait near one mean
	// service time, which is what keeps tail latency flat under
	// overload. Default: MaxInFlight.
	MaxQueue int
	// MaxWait bounds the time a request may sit in the queue before it
	// is shed. Default: Deadline/8, floored at 50ms.
	MaxWait time.Duration
	// Deadline is the per-request deadline propagated via the request
	// context. Default: 2s.
	Deadline time.Duration
	// MaxPending is the write-backpressure threshold on the ingester's
	// pending (accepted but uncompacted) mutation count. Zero selects
	// the default (4096); negative disables backpressure.
	MaxPending int
	// MaxRPS caps the admitted request rate (requests per second,
	// GCRA-smoothed with a small burst allowance); excess requests are
	// shed with 429 + Retry-After before touching the in-flight
	// semaphore. Zero disables the cap. This is how a cluster operator
	// bounds each replica's share of load so one hot client cannot
	// starve the rest.
	MaxRPS float64
}

// DefaultMaxPending is the default write-backpressure threshold.
const DefaultMaxPending = 4096

// retryAfter is the Retry-After hint, in seconds, sent on shed
// responses.
const retryAfter = "1"

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Second
	}
	if c.MaxWait <= 0 {
		c.MaxWait = c.Deadline / 8
		if c.MaxWait < 50*time.Millisecond {
			c.MaxWait = 50 * time.Millisecond
		}
	}
	if c.MaxPending == 0 {
		c.MaxPending = DefaultMaxPending
	}
	return c
}

// admission is the runtime state of the overload-protection layer: a
// semaphore of MaxInFlight tokens plus a counter bounding the waiters.
// Goroutines blocked on a channel send are served in FIFO order by the
// runtime, which is what makes the wait queue first-come-first-served.
type admission struct {
	cfg     AdmissionConfig
	sem     chan struct{}
	queued  atomic.Int64
	pending func() int   // ingest pending mutations; nil = no write backpressure
	limiter *rateLimiter // nil = no rate cap
}

// ConfigureAdmission enables the overload-protection layer on this
// server with the given (defaulted) configuration. It must be called
// before Handler; servers that never call it — embedded test servers,
// the eval tooling — serve without admission control, exactly as
// before. On a live server the write-backpressure probe is wired to the
// ingester's pending-mutation count automatically.
func (s *Server) ConfigureAdmission(cfg AdmissionConfig) {
	a := &admission{cfg: cfg.withDefaults()}
	a.sem = make(chan struct{}, a.cfg.MaxInFlight)
	if s.ing != nil {
		a.pending = s.ing.Pending
	}
	if a.cfg.MaxRPS > 0 {
		a.limiter = newRateLimiter(a.cfg.MaxRPS)
	}
	s.adm = a
}

// rateLimiter is a lock-free GCRA ("virtual scheduling") limiter: tat
// is the theoretical arrival time of the next conforming request, in
// nanoseconds. A request conforms while tat has not run more than burst
// ahead of the clock; each admitted request pushes tat one interval
// forward. One CAS per request, no background refill goroutine.
type rateLimiter struct {
	interval int64 // ns between conforming requests
	burst    int64 // ns tat may run ahead of now
	tat      atomic.Int64
}

func newRateLimiter(rps float64) *rateLimiter {
	interval := int64(float64(time.Second) / rps)
	if interval < 1 {
		interval = 1
	}
	// Allow a few requests back-to-back (or ~50ms worth at high rates)
	// so well-behaved bursty clients are smoothed, not punished.
	burst := 4 * interval
	if min := int64(50 * time.Millisecond); burst < min {
		burst = min
	}
	return &rateLimiter{interval: interval, burst: burst}
}

func (l *rateLimiter) allow() bool {
	now := time.Now().UnixNano()
	for {
		tat := l.tat.Load()
		if tat-now > l.burst {
			return false
		}
		next := tat
		if next < now {
			next = now
		}
		next += l.interval
		if l.tat.CompareAndSwap(tat, next) {
			return true
		}
	}
}

// admissionExempt reports whether path bypasses admission control:
// liveness and readiness probes must answer while the server sheds,
// /metrics is how an operator sees the shedding happen, and /repl/ is
// the replication shipping path — shedding it during overload would
// grow follower lag exactly when the followers are needed most.
func admissionExempt(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/metrics":
		return true
	}
	return strings.HasPrefix(path, "/repl/")
}

// isWritePath reports whether path is a mutation endpoint subject to
// ingest backpressure.
func isWritePath(path string) bool {
	switch path {
	case "/v1/papers", "/v1/citations", "/v1/batch":
		return true
	}
	return false
}

// shed rejects a request with the given status, reason label and a
// Retry-After hint. It runs before any request body is read.
func (s *Server) shed(w http.ResponseWriter, status int, reason, format string, args ...any) {
	mShedTotal.With(reason).Inc()
	w.Header().Set("Retry-After", retryAfter)
	s.writeError(w, status, format, args...)
}

// withAdmission is the overload-protection middleware. It runs inside
// the telemetry middleware, so shed responses still land in the
// per-route request metrics and the request log.
func (s *Server) withAdmission(next http.Handler) http.Handler {
	a := s.adm
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if admissionExempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		if s.repl != nil {
			// A lagging replica sheds reads rather than serving stale
			// epochs; clients retry against a caught-up peer. (A replica
			// with no view yet falls through to requireView's 503.)
			if info := s.repl.src.Info(); info.EpochLag > s.repl.maxLag {
				s.shed(w, http.StatusServiceUnavailable, "stale_replica",
					"replica stale: %d epochs behind the leader (max %d)", info.EpochLag, s.repl.maxLag)
				return
			}
		}
		if a.limiter != nil && !a.limiter.allow() {
			s.shed(w, http.StatusTooManyRequests, "rate_limited",
				"rate cap of %g requests/s exceeded", a.cfg.MaxRPS)
			return
		}
		if a.pending != nil && a.cfg.MaxPending > 0 && isWritePath(r.URL.Path) {
			if p := a.pending(); p > a.cfg.MaxPending {
				s.shed(w, http.StatusTooManyRequests, "backpressure",
					"ingest pipeline saturated: %d mutations pending (limit %d)", p, a.cfg.MaxPending)
				return
			}
		}
		release, ok := a.acquire(s, w, r)
		if !ok {
			return
		}
		defer release()
		if a.cfg.Deadline > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), a.cfg.Deadline)
			r = r.WithContext(ctx)
			defer func() {
				if ctx.Err() == context.DeadlineExceeded {
					mDeadlineExceededTotal.Inc()
				}
				cancel()
			}()
		}
		next.ServeHTTP(w, r)
	})
}

// acquire takes an in-flight token, queueing FIFO when none is free.
// It either returns (release, true) after writing nothing, or writes
// the shed response itself and returns (nil, false).
func (a *admission) acquire(s *Server, w http.ResponseWriter, r *http.Request) (func(), bool) {
	select {
	case a.sem <- struct{}{}:
		return a.release, true
	default:
	}
	if a.queued.Add(1) > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		s.shed(w, http.StatusServiceUnavailable, "queue_full",
			"overloaded: %d requests in flight and %d queued", a.cfg.MaxInFlight, a.cfg.MaxQueue)
		return nil, false
	}
	mQueueDepth.Add(1)
	defer func() {
		a.queued.Add(-1)
		mQueueDepth.Add(-1)
	}()
	started := time.Now()
	timer := time.NewTimer(a.cfg.MaxWait)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		mQueueWaitSeconds.ObserveSince(started)
		return a.release, true
	case <-timer.C:
		mQueueWaitSeconds.ObserveSince(started)
		s.shed(w, http.StatusServiceUnavailable, "queue_timeout",
			"overloaded: no capacity within %s", a.cfg.MaxWait)
		return nil, false
	case <-r.Context().Done():
		// The client gave up while queued; nobody is reading the
		// response, but record an honest status for the logs.
		s.writeError(w, http.StatusServiceUnavailable, "client cancelled while queued")
		return nil, false
	}
}

func (a *admission) release() { <-a.sem }
