package obs

import (
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "ops")
	g := r.NewGauge("test_depth", "depth")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if want := 0.05 + 0.1 + 0.5 + 5 + 50; math.Abs(h.Sum()-want) > 1e-12 {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
	var got []string
	h.samples(func(suffix, labels string, v float64) {
		got = append(got, suffix+labels+" "+formatFloat(v))
	})
	want := []string{
		`_bucket{le="0.1"} 2`, // 0.05 and the boundary value 0.1 (le semantics)
		`_bucket{le="1"} 3`,
		`_bucket{le="10"} 4`,
		`_bucket{le="+Inf"} 5`,
		`_sum 55.65`,
		`_count 5`,
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("samples = %q, want %q", got, want)
		}
	}
}

func TestVecChildrenAreStable(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_reqs_total", "requests", "route", "code")
	a := cv.With("/v1/top", "200")
	a.Inc()
	if cv.With("/v1/top", "200") != a {
		t.Error("same labels must return the same child")
	}
	if cv.With("/v1/top", "404") == a {
		t.Error("distinct labels must return distinct children")
	}
	hv := r.NewHistogramVec("test_lat", "latency", []float64{1}, "route")
	if hv.With("/a") != hv.With("/a") {
		t.Error("histogram child not stable")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup_total", "")
}

// expositionLine matches one sample line of the text format 0.0.4.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("fmt_ops_total", "ops so far").Add(7)
	r.NewGauge("fmt_depth", "queue depth").Set(-1.25)
	h := r.NewHistogram("fmt_lat_seconds", "latency", ExpBuckets(0.001, 10, 3))
	h.Observe(0.004)
	hv := r.NewHistogramVec("fmt_route_seconds", "per-route", []float64{1}, "route")
	hv.With(`/weird"path\`).ObserveSince(time.Now().Add(-time.Millisecond))

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	var families []string
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			if strings.HasPrefix(line, "# TYPE ") {
				families = append(families, strings.Fields(line)[2])
			}
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{"fmt_ops_total", "fmt_depth", "fmt_lat_seconds", "fmt_route_seconds"} {
		found := false
		for _, f := range families {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("family %s missing from exposition:\n%s", want, body)
		}
	}
	if !strings.Contains(body, "fmt_ops_total 7") {
		t.Errorf("counter sample missing:\n%s", body)
	}
	if !strings.Contains(body, `le="+Inf"`) {
		t.Errorf("+Inf bucket missing:\n%s", body)
	}
}

// TestConcurrentRecording exercises every metric type from many
// goroutines; run under -race this is the data-race gate, and the
// final counts check that no observation is lost.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "")
	g := r.NewGauge("conc_gauge", "")
	h := r.NewHistogram("conc_seconds", "", ExpBuckets(1e-6, 4, 8))
	hv := r.NewHistogramVec("conc_route_seconds", "", []float64{0.5}, "route")
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := []string{"/a", "/b", "/c"}[w%3]
			for i := 0; i < each; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 1e-6)
				hv.With(route).Observe(0.25)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*each {
		t.Errorf("counter = %d, want %d", c.Value(), workers*each)
	}
	if g.Value() != workers*each {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*each)
	}
	if h.Count() != workers*each {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*each)
	}
	total := uint64(0)
	for _, route := range []string{"/a", "/b", "/c"} {
		total += hv.With(route).Count()
	}
	if total != workers*each {
		t.Errorf("vec total = %d, want %d", total, workers*each)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Errorf("ExpBuckets[%d] = %v, want %v", i, exp[i], want)
		}
	}
	lin := LinearBuckets(0, 5, 3)
	for i, want := range []float64{0, 5, 10} {
		if lin[i] != want {
			t.Errorf("LinearBuckets[%d] = %v, want %v", i, lin[i], want)
		}
	}
}
