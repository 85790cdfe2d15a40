package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started; Parent is 0 for a root.
type span struct {
	Name   string         `json:"name"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// run with tracing off: the benchmark checks for nil before recording.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn as a span named name under parent.
func (t *tracer) timed(name string, parent uint64, fn func()) {
	s := span{Name: name, ID: t.newID(), Parent: parent, Start: t.at(time.Now())}
	fn()
	s.End = t.at(time.Now())
	t.record(s)
}

// wrap records a service.<route> span for every request that carries a
// client span id, as that span's child. Other requests pass through.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(span{Name: "service." + routeOf(r.URL.Path), ID: t.newID(), Parent: parent,
			Start: t.at(start), End: t.at(time.Now())})
	})
}

func routeOf(path string) string {
	switch {
	case path == "/v1/top":
		return opTop.route()
	case strings.HasPrefix(path, "/v1/paper/"):
		return opPaper.route()
	case strings.HasPrefix(path, "/v1/impact/"):
		return opImpact.route()
	case path == "/v1/batch":
		return opWrite.route()
	default:
		return "other"
	}
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines, in start order.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// medianMS is the nearest-rank median, in milliseconds, of the self
// times of the spans named name.
func medianMS(spans []span, self map[uint64]time.Duration, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, ms(self[s.ID]))
		}
	}
	return quantile(xs, 0.5)
}
