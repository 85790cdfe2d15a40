package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request; a request that takes longer fails.
const requestTimeout = 10 * time.Second

// lane is a stream of operations sent to one server over a fixed number
// of connections. Operations of a lane with one connection reach the
// server in schedule order. An open lane sends each operation when it is
// due; a closed lane ignores due times, and each of its connections sends
// the next operation as soon as its previous one completes, until the
// window ends.
type lane struct {
	base   string
	ops    []op
	conns  int
	closed bool
}

// sample is the outcome of one operation.
type sample struct {
	due, sent, done time.Time
	// lag is how late the generator sent the operation: after its due
	// time or, if later, after a connection became free for it.
	lag    time.Duration
	status int
	ok     bool // a 200 whose body passed the op's check
	traced bool
}

// latency is the time from when the operation was due to its response:
// a request that waited for a free connection is charged the wait. In a
// closed lane an operation is due when its connection sends it.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// shed reports a request the server refused under load.
func (s sample) shed() bool {
	return s.status == http.StatusServiceUnavailable || s.status == http.StatusTooManyRequests
}

// runLanes runs every lane and returns once all of its requests have
// completed. An open lane sends each of its operations once, as soon as
// it is due or — when all of the lane's connections are busy then — as
// soon as one frees up, and returns the samples in schedule order. A
// closed lane cycles through its operations until the window has passed
// and returns the samples in completion order. When tr is non-nil every
// other operation is traced, so one run yields both traced and untraced
// latencies.
func runLanes(start time.Time, window time.Duration, lanes []lane, tr *tracer) [][]sample {
	type laneResult struct {
		mu      sync.Mutex // guards samples of a closed lane
		samples []sample
	}
	results := make([]laneResult, len(lanes))
	var wg sync.WaitGroup
	for li := range lanes {
		ln, res := lanes[li], &results[li]
		if !ln.closed {
			res.samples = make([]sample, len(ln.ops))
		}
		next := new(atomic.Int64)
		for c := 0; c < ln.conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
				defer transport.CloseIdleConnections()
				client := &http.Client{Transport: transport, Timeout: requestTimeout}
				for {
					i := int(next.Add(1) - 1)
					if ln.closed {
						if time.Since(start) >= window {
							return
						}
						s := send(client, ln.base, &ln.ops[i%len(ln.ops)], tr, i%2 == 1)
						s.due = s.sent
						res.mu.Lock()
						res.samples = append(res.samples, s)
						res.mu.Unlock()
						continue
					}
					if i >= len(ln.ops) {
						return
					}
					o := &ln.ops[i]
					due, free := start.Add(o.due), time.Now()
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					s := send(client, ln.base, o, tr, i%2 == 1)
					s.due = due
					if free.After(due) {
						due = free
					}
					s.lag = s.sent.Sub(due)
					res.samples[i] = s
				}
			}()
		}
	}
	wg.Wait()
	out := make([][]sample, len(lanes))
	for li := range results {
		out[li] = results[li].samples
	}
	return out
}

// opHeader carries the client's load.request span id to the server-side
// wrapper, which records the handler span as its child.
const opHeader = "X-Bench-Op"

func send(client *http.Client, base string, o *op, tr *tracer, traced bool) sample {
	method, body := http.MethodGet, io.Reader(nil)
	if o.body != nil {
		method, body = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(method, base+o.path, body)
	if err != nil {
		now := time.Now()
		return sample{sent: now, done: now}
	}
	var id uint64
	if traced && tr != nil {
		id = tr.newID()
		req.Header.Set(opHeader, strconv.FormatUint(id, 10))
	}
	s := sample{sent: time.Now()}
	if resp, err := client.Do(req); err == nil {
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
		s.ok = rerr == nil && resp.StatusCode == http.StatusOK && o.correct(data)
	}
	s.done = time.Now()
	if id != 0 {
		s.traced = true
		tr.record(span{Name: "load.request", ID: id, Start: tr.at(s.sent), End: tr.at(s.done),
			Attrs: map[string]any{"route": o.kind.route(), "status": s.status}})
	}
	return s
}

// correct checks a 200 response body against what the op expects.
func (o *op) correct(body []byte) bool {
	if o.items > 0 {
		return bytes.Count(body, o.expect) == o.items
	}
	return bytes.Contains(body, o.expect)
}
