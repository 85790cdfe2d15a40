package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"attrank/internal/graph"
)

// opKind is the endpoint an operation exercises.
type opKind uint8

const (
	opTop opKind = iota
	opPaper
	opImpact
	opWrite
)

// route names the service route of an operation, as used in span names.
func (k opKind) route() string {
	switch k {
	case opTop:
		return "top"
	case opPaper:
		return "paper"
	case opImpact:
		return "impact"
	default:
		return "batch"
	}
}

// op is one scheduled request. Everything about it — when it is due,
// what it asks for and what a correct answer contains — is fixed before
// the load starts, from the workload seed alone.
type op struct {
	due    time.Duration // offset from the start of the phase
	kind   opKind
	path   string
	body   []byte // POST body; nil for a GET
	expect []byte // a substring every correct response body contains
	items  int    // /v1/top: entries a correct response holds
}

// Seeded streams: each random choice of a workload draws from its own
// source, so changing one (say, the read mix) leaves the others intact.
const (
	streamReadArrivals = iota + 1
	streamReadMix
	streamWriteArrivals
	streamWrites
	streamCheck
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

// arrivals draws Poisson arrival offsets at rate per second over window.
func arrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// readOps assigns the read mix to the given arrival offsets: 60%
// /v1/top?n=5..49 (a quarter of them with an offset), 25% /v1/paper/{id}
// and 15% /v1/impact/{id}, ids drawn uniformly from the corpus.
func readOps(rng *rand.Rand, net *graph.Network, dues []time.Duration) []op {
	ops := make([]op, len(dues))
	for i, due := range dues {
		u := rng.Float64()
		switch {
		case u < 0.60:
			n := 5 + rng.Intn(45)
			path := "/v1/top?n=" + strconv.Itoa(n)
			if rng.Intn(4) == 0 {
				path += "&offset=" + strconv.Itoa(1+rng.Intn(100))
			}
			ops[i] = op{due: due, kind: opTop, path: path, expect: []byte(`"rank":`), items: n}
		case u < 0.85:
			id := net.Paper(int32(rng.Intn(net.N()))).ID
			ops[i] = op{due: due, kind: opPaper, path: "/v1/paper/" + id, expect: []byte(`"id":"` + id + `"`)}
		default:
			id := net.Paper(int32(rng.Intn(net.N()))).ID
			ops[i] = op{due: due, kind: opImpact, path: "/v1/impact/" + id, expect: []byte(`"id":"` + id + `"`)}
		}
	}
	return ops
}

type paperReq struct {
	ID   string `json:"id"`
	Year int    `json:"year"`
}

type citationReq struct {
	Citing string `json:"citing"`
	Cited  string `json:"cited"`
}

type batchReq struct {
	Papers    []paperReq    `json:"papers,omitempty"`
	Citations []citationReq `json:"citations"`
}

func writeOp(due time.Duration, req batchReq) op {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	accepted := len(req.Papers) + len(req.Citations)
	return op{due: due, kind: opWrite, path: "/v1/batch", body: body,
		expect: []byte(`"accepted":` + strconv.Itoa(accepted) + `,`)}
}

// fullWriteOps makes one POST /v1/batch per arrival, each adding a new
// paper of the corpus's newest year and one citation from it to an
// existing paper. New papers take every epoch down the full path.
func fullWriteOps(rng *rand.Rand, net *graph.Network, dues []time.Duration) []op {
	ops := make([]op, len(dues))
	year := net.MaxYear()
	for i, due := range dues {
		id := "w" + strconv.Itoa(i)
		cited := net.Paper(int32(rng.Intn(net.N()))).ID
		ops[i] = writeOp(due, batchReq{
			Papers:    []paperReq{{ID: id, Year: year}},
			Citations: []citationReq{{Citing: id, Cited: cited}},
		})
	}
	return ops
}

// pushWriteOps makes one POST /v1/batch per arrival, each adding one new
// citation between existing papers (see newCitation). A citation-only
// batch is eligible for the incremental push path.
func pushWriteOps(rng *rand.Rand, net *graph.Network, dues []time.Duration) []op {
	ops := make([]op, len(dues))
	pool, used := citingPool(net), make(map[[2]int32]bool, len(dues))
	for i, due := range dues {
		a, b := newCitation(rng, net, pool, used)
		ops[i] = writeOp(due, batchReq{Citations: []citationReq{{Citing: net.Paper(a).ID, Cited: net.Paper(b).ID}}})
	}
	return ops
}

// citingPool is the papers write_push cites from: the tenth of the corpus
// with the longest reference lists (12 or more on the benchmark corpus).
// Each citation from a paper with k references multiplies the push
// path's error bound by about 1 + 2/(k+1). Drawn from every paper (median
// k = 8, some with none), the bound passed its budget after 2 to 15 push
// epochs, so full epochs came at random, and on a slow host they held
// more than half the writes: the median then timed full epochs instead
// of the push path. From this pool push streaks ran 7 to 16 epochs.
func citingPool(net *graph.Network) []int32 {
	refs := make([]int, net.N())
	for i := range refs {
		refs[i] = net.OutDegree(int32(i))
	}
	sorted := append([]int(nil), refs...)
	sort.Ints(sorted)
	least := sorted[nearestRank(len(sorted), 0.9)-1]
	var pool []int32
	for i, k := range refs {
		if k >= least {
			pool = append(pool, int32(i))
		}
	}
	return pool
}

// newCitation draws a citation from a pool paper to a paper no newer than
// it that neither net nor an earlier draw in used holds, in either
// direction, and records it in used.
func newCitation(rng *rand.Rand, net *graph.Network, pool []int32, used map[[2]int32]bool) (citing, cited int32) {
	for {
		a, b := pool[rng.Intn(len(pool))], int32(rng.Intn(net.N()))
		if a == b || net.Year(b) > net.Year(a) || used[[2]int32{a, b}] || used[[2]int32{b, a}] ||
			net.HasEdge(a, b) || net.HasEdge(b, a) {
			continue
		}
		used[[2]int32{a, b}] = true
		return a, b
	}
}
