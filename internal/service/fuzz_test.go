package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"attrank/internal/ingest"
	"attrank/internal/metrics"
)

// The HTTP fuzz targets hammer the read-path query parsing with
// arbitrary bytes. The contract for every input: no panic, a bounded
// response body, and a status that is either success, a 4xx rejection,
// or the mux's own canonicalization redirect — never a 5xx and never an
// unbounded allocation driven by client-controlled numbers.

// maxFuzzBody bounds response allocation: the 4MB ceiling is far above
// anything the capped n/offset parameters can produce, so exceeding it
// means a client-controlled allocation escaped its bound.
const maxFuzzBody = 4 << 20

func fuzzCheck(t *testing.T, h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	switch {
	case rec.Code == http.StatusOK,
		rec.Code == http.StatusMovedPermanently, // ServeMux path cleaning
		rec.Code >= 400 && rec.Code < 500:
	default:
		t.Fatalf("%s %s -> %d\n%s", req.Method, req.URL, rec.Code, rec.Body.String())
	}
	if rec.Body.Len() > maxFuzzBody {
		t.Fatalf("%s %s -> %d byte body", req.Method, req.URL, rec.Body.Len())
	}
	return rec
}

// FuzzTopQuery exercises /v1/top's n and offset parsing via the raw
// query string.
func FuzzTopQuery(f *testing.F) {
	for _, seed := range []string{
		"", "n=20", "n=1000&offset=10000", "n=0", "n=-1", "n=1e9",
		"n=999999999999999999999", "offset=-5", "n=3;offset=2",
		"n=%32%30", "n=20&n=7", "offset=\x00", "n=NaN&offset=Inf",
		"n=2&offset=4", "offset=5", "n=3&offset=1",
	} {
		f.Add(seed)
	}
	s := testServer(f)
	h := s.Handler()
	v := s.view()
	order := metrics.Ordering(v.Result.Scores)
	f.Fuzz(func(t *testing.T, rawQuery string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/top", nil)
		req.URL.RawQuery = rawQuery
		rec := fuzzCheck(t, h, req)
		if rec.Code != http.StatusOK {
			return
		}
		// Numbers out of [1,1000]×[0,10000] must be rejected, not
		// clamped into a giant selection.
		if rec.Body.Len() > 1<<20 {
			t.Fatalf("accepted query %q produced %d bytes", rawQuery, rec.Body.Len())
		}
		// An accepted page holds exactly min(n, max(0, N−offset))
		// entries: the slice [offset, offset+n) of the ranking order,
		// clipped to the corpus.
		n, offset := 20, 0
		q := req.URL.Query()
		if raw := q.Get("n"); raw != "" {
			n, _ = strconv.Atoi(raw)
		}
		if raw := q.Get("offset"); raw != "" {
			offset, _ = strconv.Atoi(raw)
		}
		want := order[min(offset, len(order)):min(offset+n, len(order))]
		var page []paperBody
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("query %q: %v", rawQuery, err)
		}
		if len(page) != len(want) {
			t.Fatalf("query %q (n=%d offset=%d): %d entries, want %d", rawQuery, n, offset, len(page), len(want))
		}
		for k, idx := range want {
			if id := v.Net.Paper(int32(idx)).ID; page[k].ID != id || page[k].Rank != offset+k+1 {
				t.Fatalf("query %q entry %d: %s at rank %d, want %s at rank %d",
					rawQuery, k, page[k].ID, page[k].Rank, id, offset+k+1)
			}
		}
	})
}

// FuzzCompareQuery exercises /v1/compare's a/b pair lookup.
func FuzzCompareQuery(f *testing.F) {
	for _, seed := range []string{
		"", "a=old&b=hot", "a=old", "b=hot", "a=&b=", "a=old&b=old",
		"a=%zz&b=hot", "a=old&a=hot&b=mid", "a=\xff\xfe&b=x",
	} {
		f.Add(seed)
	}
	h := testServer(f).Handler()
	f.Fuzz(func(t *testing.T, rawQuery string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/compare", nil)
		req.URL.RawQuery = rawQuery
		fuzzCheck(t, h, req)
	})
}

// FuzzPaperID exercises the /v1/paper/{id} path segment, including
// separators, dot-dot traversals and invalid UTF-8.
func FuzzPaperID(f *testing.F) {
	for _, seed := range []string{
		"old", "hot", "", "nope", "a/b", "../../etc/passwd", ".",
		"old/", "%2e%2e", "old?n=1", "\x00", "\xff\xfe\xfd", "ümlaut",
	} {
		f.Add(seed)
	}
	h := testServer(f).Handler()
	f.Fuzz(func(t *testing.T, id string) {
		// Build a valid request first, then splice the fuzzed segment
		// into the parsed URL (httptest.NewRequest panics on targets
		// that don't parse, which would abort the fuzzer itself).
		req := httptest.NewRequest(http.MethodGet, "/v1/paper/x", nil)
		req.URL.Path = "/v1/paper/" + id
		fuzzCheck(t, h, req)
	})
}

// FuzzImpactID exercises the /v1/impact/{id} segment with malformed
// DOI-like spellings: prefixes, case soup, traversal attempts, invalid
// UTF-8, and the reserved "batch" word in id position.
func FuzzImpactID(f *testing.F) {
	for _, seed := range []string{
		"hot", "doi:hot", "DOI:HOT", "https://doi.org/hot", "doi.org/old",
		"doi:", "doi:doi:hot", "10.1000/../../etc", "batch", "batch/",
		"", ".", "%2e%2e", "\x00", "\xff\xfe\xfd", "doi:ümlaut",
		"   hot   ", "http://dx.doi.org/", strings.Repeat("x", 4096),
	} {
		f.Add(seed)
	}
	h := impactTestServer(f).Handler()
	f.Fuzz(func(t *testing.T, id string) {
		req := httptest.NewRequest(http.MethodGet, "/v1/impact/x", nil)
		req.URL.Path = "/v1/impact/" + id
		fuzzCheck(t, h, req)
	})
}

// FuzzImpactBatch exercises the batch endpoint's body parsing with
// arbitrary bytes: broken JSON, huge and duplicate id lists, unknown
// fields, nulls. The contract is bounded 4xx or item-wise errors —
// never a panic, never a 5xx.
func FuzzImpactBatch(f *testing.F) {
	hugeIDs, _ := json.Marshal(map[string][]string{"ids": make([]string, 1001)})
	f.Add([]byte(`{"ids":["hot","old"]}`))
	f.Add([]byte(`{"ids":["hot","hot","hot"]}`))
	f.Add([]byte(`{"ids":[]}`))
	f.Add([]byte(`{"ids":null}`))
	f.Add([]byte(`{"ids":["doi:HOT","https://doi.org/old"," "]}`))
	f.Add([]byte(`{"ids":"hot"}`))
	f.Add([]byte(`{"extra":1,"ids":["hot"]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add(hugeIDs)
	f.Add([]byte("\xff\xfe not json"))
	h := impactTestServer(f).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/impact/batch", bytes.NewReader(body))
		fuzzCheck(t, h, req)
	})
}

// FuzzWriteBody posts arbitrary bodies to the three write endpoints of a
// live server over a temp-dir ingester. Beyond the shared contract (no
// panic, no 5xx), a 200 from /v1/batch must account for every posted
// item exactly once: accepted + duplicates + len(errors) = items.
//
// The first "$LONG" in a body expands to a 64 KiB run, one byte past the
// WAL's u16 string limit, so the fuzzer reaches oversized fields without
// mutating (and minimizing) 64 KiB inputs. Only the first: responses may
// echo an unknown id, and many expansions would outgrow maxFuzzBody by
// the test's own amplification, not the server's.
func FuzzWriteBody(f *testing.F) {
	const long = "$LONG"
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"id":"fresh","year":1999,"authors":["dave"],"venue":"V"}`},
		{0, `{"id":"old","year":1990}`},
		{0, `{"id":"","year":2000}`},
		{0, `{"id":"big","year":99999999999}`},
		{0, `{"id":"` + long + `","year":2000}`},
		{0, `{"id":"x","yr":12}`},
		{1, `{"citing":"hot","cited":"old"}`},
		{1, `{"citing":"old","cited":"old"}`},
		{1, `{"citing":"ghost","cited":"old"}`},
		{1, `{"citing":"hot"}`},
		{2, `{"papers":[{"id":"b1","year":1998}],"citations":[{"citing":"b1","cited":"hot"},{"citing":"b1","cited":"nope"}]}`},
		{2, `{"papers":[{"id":"old","year":1990},{"id":"","year":1}],"citations":[{"citing":"hot","cited":"mid"}]}`},
		{2, `{"papers":[{"id":"` + long + `","year":2000},{"id":"ok","year":2000}]}`},
		{2, `{"papers":[{"id":"a","year":2000,"authors":["` + long + `"]}]}`},
		{2, `{"papers":[],"citations":[]}`},
		{2, `{"papers":null}`},
		{2, `{"papers":{}}`},
		{2, `[1,2,3]`},
		{2, `{`},
		{2, ""},
		{2, "\xff\xfe not json"},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	s, _ := liveServer(f, liveSeed(f), ingest.Config{})
	h := s.Handler()
	paths := []string{"/v1/papers", "/v1/citations", "/v1/batch"}
	expanded := []byte(strings.Repeat("x", 1<<16))
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		body = bytes.Replace(body, []byte(long), expanded, 1)
		path := paths[int(endpoint)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := fuzzCheck(t, h, req)
		if path != "/v1/batch" || rec.Code != http.StatusOK {
			return
		}
		// The handler decoded this body; decode it the same way to
		// count the posted items.
		var posted batchReq
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&posted); err != nil {
			t.Fatalf("batch accepted a body that does not decode: %v", err)
		}
		var got batchBody
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("batch response: %v\n%s", err, rec.Body.String())
		}
		items := len(posted.Papers) + len(posted.Citations)
		if sum := got.Accepted + got.Duplicates + len(got.Errors); sum != items {
			t.Fatalf("batch of %d items reported %d accepted + %d duplicates + %d errors",
				items, got.Accepted, got.Duplicates, len(got.Errors))
		}
	})
}
