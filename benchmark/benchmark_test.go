package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// A stalled request delays every request queued behind it on the same
// connection; the open loop must charge them the wait, not hide it.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	var ops []op
	for i := 0; i < 20; i++ {
		o := op{due: time.Duration(i) * 10 * time.Millisecond, kind: opPaper, path: "/fast", expect: []byte("ok")}
		if i == 5 {
			o.path = "/stall"
		}
		ops = append(ops, o)
	}
	start := time.Now()
	res := runLanes(start, time.Minute, []lane{{base: srv.URL, ops: ops, conns: 1}}, nil)[0]
	for i, s := range res {
		if !s.ok {
			t.Fatalf("op %d failed with status %d", i, s.status)
		}
	}
	// Op 6 was due 10ms after the stall began, so it waited ~190ms.
	if lat := res[6].latency(); lat < stall-10*time.Millisecond-5*time.Millisecond {
		t.Errorf("op 6 latency %s: the stall was not charged to it", lat)
	}
	// The generator itself was not late: the op went out as soon as the
	// connection came free.
	if res[6].lag > 20*time.Millisecond {
		t.Errorf("op 6 send lag %s: waiting for the connection counted as generator lag", res[6].lag)
	}
	// Ops before the stall were not affected.
	if lat := res[2].latency(); lat > 100*time.Millisecond {
		t.Errorf("op 2 latency %s before the stall", lat)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	net, err := generateCorpus(2000)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(seed int64) (reads, full, push []op) {
		dues := arrivals(newRand(seed, streamReadArrivals), 150, 2*time.Second)
		reads = readOps(newRand(seed, streamReadMix), net, dues)
		dues = arrivals(newRand(seed, streamWriteArrivals), 10, 2*time.Second)
		full = fullWriteOps(newRand(seed, streamWrites), net, dues)
		push = pushWriteOps(newRand(seed, streamWrites), net, dues)
		return
	}
	r1, f1, p1 := plan(7)
	r2, f2, p2 := plan(7)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("the same seed gave different schedules")
	}
	r3, _, p3 := plan(8)
	if reflect.DeepEqual(r1, r3) || reflect.DeepEqual(p1, p3) {
		t.Fatal("a different seed gave the same schedule")
	}
	if len(r1) < 200 || len(r1) > 400 {
		t.Errorf("%d reads in 2s at 150/s", len(r1))
	}
	for i := 1; i < len(r1); i++ {
		if r1[i].due < r1[i-1].due {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	seen := make(map[string]bool)
	inPool := make(map[string]bool)
	for _, i := range citingPool(net) {
		inPool[net.Paper(i).ID] = true
	}
	if n := len(inPool); n < net.N()/10 || n == net.N() {
		t.Errorf("citing pool of %d papers out of %d, want the tenth with the most references", n, net.N())
	}
	for _, o := range p1 {
		if seen[string(o.body)] {
			t.Fatalf("citation written twice: %s", o.body)
		}
		seen[string(o.body)] = true
		var req batchReq
		if err := json.Unmarshal(o.body, &req); err != nil {
			t.Fatal(err)
		}
		c := req.Citations[0]
		citing, _ := net.Lookup(c.Citing)
		cited, _ := net.Lookup(c.Cited)
		if !inPool[c.Citing] || net.Year(cited) > net.Year(citing) || net.HasEdge(citing, cited) || net.HasEdge(cited, citing) {
			t.Fatalf("citation %s→%s: citing paper outside the pool, cited paper newer, or edge already held", c.Citing, c.Cited)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := func() []float64 { return []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} }
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}} {
		if got := quantile(xs(), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v", got)
	}
	// p90 has ten samples beyond it from 100 samples on, not before.
	if b := beyond(100, 0.9); b != minBeyond {
		t.Errorf("beyond(100, 0.9) = %d", b)
	}
	if b := beyond(99, 0.9); b >= minBeyond {
		t.Errorf("beyond(99, 0.9) = %d, want fewer than %d", b, minBeyond)
	}
	if b := beyond(1000, 0.99); b != minBeyond {
		t.Errorf("beyond(1000, 0.99) = %d", b)
	}
}

func TestVisibleAt(t *testing.T) {
	t0 := time.Now()
	history := []edgePoint{{t0, 100}, {t0.Add(time.Second), 102}, {t0.Add(2 * time.Second), 103}}
	const e0 = 100
	for k, want := range map[int]time.Duration{1: time.Second, 2: time.Second, 3: 2 * time.Second} {
		at, ok := visibleAt(history, e0+k)
		if !ok || at.Sub(t0) != want {
			t.Errorf("write %d visible at %v (%v), want %v", k, at.Sub(t0), ok, want)
		}
	}
	if _, ok := visibleAt(history, e0+4); ok {
		t.Error("write 4 visible before the follower served its edge")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "child", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "child", ID: 3, Parent: 1, Start: 20, End: 50},
		{Name: "child", ID: 4, Parent: 1, Start: 60, End: 70},
	}
	self := selfTimes(spans)
	if self[1] != 50 || self[2] != 20 || self[4] != 10 {
		t.Errorf("self times %v, want parent 50 (children cover [10,50] and [60,70])", self)
	}
}

// A short run of every workload, untraced and traced, on a small corpus:
// the gates pass and the output is the contract's JSON line.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{workload: w, seed: 1, window: time.Second, trace: traced,
					traceOut: dir + "/spans.jsonl", workdir: dir, papers: 2000, setups: 2}
				out, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.gates) > 0 || out.failed > 0 || out.attempted == 0 {
					t.Fatalf("gates %v, %d of %d failed", out.gates, out.failed, out.attempted)
				}
				var buf bytes.Buffer
				if err := out.print(&buf, cfg); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil {
					t.Fatalf("result keys: %s", lines[len(lines)-1])
				}
				var metrics map[string]struct {
					Value float64
					Unit  string
				}
				if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := metrics[d.name]
					if !ok || m.Unit != d.unit || (!traced && m.Value <= 0) {
						t.Errorf("metric %s: %+v (present %v)", d.name, m, ok)
					}
				}
				if traced {
					checkSpanFile(t, cfg.traceOut)
				}
			})
		}
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", n+1, err)
		}
		if s.ID == 0 || s.End < s.Start {
			t.Fatalf("span line %d: %+v", n+1, s)
		}
		n++
	}
	if n == 0 {
		t.Error("empty span file")
	}
}
