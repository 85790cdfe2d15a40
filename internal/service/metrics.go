package service

import (
	"strings"

	"attrank/internal/obs"
)

// The service metric catalogue (see DESIGN.md §9): per-route request
// counts by status code and per-route latency histograms. Routes are
// normalized through routeLabel so path parameters (/v1/paper/{id})
// cannot explode the label cardinality.
var (
	mRequestsTotal = obs.NewCounterVec("attrank_http_requests_total",
		"HTTP requests served, by normalized route and status code.",
		"route", "code")
	mRequestSeconds = obs.NewHistogramVec("attrank_http_request_seconds",
		"HTTP request latency by normalized route.",
		obs.LatencyBuckets, "route")
	mInFlight = obs.NewGauge("attrank_http_in_flight_requests",
		"Requests currently being served.")

	// Overload-protection metrics (DESIGN.md §10): every shed, queue and
	// deadline event is observable, because under overload the metrics
	// are the only view into what the admission controller is doing.
	mShedTotal = obs.NewCounterVec("attrank_http_shed_total",
		"Requests rejected by the admission controller, by reason: "+
			"queue_full, queue_timeout, backpressure, rate_limited, stale_replica.",
		"reason")
	mQueueWaitSeconds = obs.NewHistogram("attrank_http_queue_wait_seconds",
		"Time requests spent in the admission queue (admitted and shed alike).",
		obs.LatencyBuckets)
	mQueueDepth = obs.NewGauge("attrank_http_queue_depth",
		"Requests currently waiting in the admission queue.")
	mDeadlineExceededTotal = obs.NewCounter("attrank_http_deadline_exceeded_total",
		"Requests whose per-request deadline expired while the handler ran.")
)

// routeLabel maps a request path to its route label: parameterized
// routes collapse to one label, unknown paths collapse to "other" so
// scanners cannot mint unbounded label values.
func routeLabel(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/paper/"):
		return "/v1/paper/{id}"
	case strings.HasPrefix(path, "/v1/related/"):
		return "/v1/related/{id}"
	case path == "/v1/impact/batch":
		return path
	case strings.HasPrefix(path, "/v1/impact/"):
		return "/v1/impact/{id}"
	}
	switch path {
	case "/v1/stats", "/v1/top", "/v1/compare", "/v1/refresh", "/v1/authors",
		"/v1/papers", "/v1/citations", "/v1/batch", "/v1/epoch",
		"/healthz", "/readyz", "/metrics",
		"/repl/state", "/repl/wal":
		return path
	}
	return "other"
}
