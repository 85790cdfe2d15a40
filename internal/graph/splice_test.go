package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"
)

// builderOp is one call on a Builder, replayed identically on a
// from-scratch builder and on a builder spliced onto a base network.
type builderOp struct {
	paper          bool
	id             string
	year           int
	authors        []string
	venue          string
	citing, cited  string // edge endpoints when !paper
	wantPaperError bool   // AddPaper must fail (duplicate ID)
}

func applyOps(t *testing.T, b *Builder, ops []builderOp) {
	t.Helper()
	for _, op := range ops {
		if !op.paper {
			b.AddEdge(op.citing, op.cited)
			continue
		}
		_, err := b.AddPaper(op.id, op.year, op.authors, op.venue)
		if (err != nil) != op.wantPaperError {
			t.Fatalf("AddPaper(%q): err = %v, want error %v", op.id, err, op.wantPaperError)
		}
	}
}

// randomBatch draws papers and citations over the papers in ids, which
// it extends. Citations go between old papers (some repeating existing
// edges or earlier ones in the batch), from new papers, into new papers
// and among new ones, and some are recorded before their new endpoint
// exists. With bad set, one of the error cases is injected too.
func randomBatch(rng *rand.Rand, ids *[]string, gen, papers, edges int, bad string) []builderOp {
	var ops []builderOp
	var newIDs []string
	for i := 0; i < papers; i++ {
		id := fmt.Sprintf("g%d-%d", gen, i)
		var authors []string
		for a := rng.Intn(3); a > 0; a-- {
			authors = append(authors, fmt.Sprintf("author-%d", rng.Intn(12+4*gen)))
		}
		venue := ""
		if rng.Intn(3) > 0 {
			venue = fmt.Sprintf("venue-%d", rng.Intn(3+gen))
		}
		ops = append(ops, builderOp{paper: true, id: id, year: 1985 + rng.Intn(20+5*gen), authors: authors, venue: venue})
		newIDs = append(newIDs, id)
	}
	all := append(append([]string(nil), *ids...), newIDs...)
	var cites []builderOp
	for i := 0; i < edges; i++ {
		a, b := all[rng.Intn(len(all))], all[rng.Intn(len(all))]
		if a == b {
			continue
		}
		cites = append(cites, builderOp{citing: a, cited: b})
		if rng.Intn(8) == 0 {
			cites = append(cites, builderOp{citing: a, cited: b}) // duplicate edge
		}
	}
	switch bad {
	case "duplicate-id":
		if len(*ids) > 0 {
			ops = append(ops, builderOp{paper: true, id: (*ids)[rng.Intn(len(*ids))], year: 2000, wantPaperError: true})
		}
		ops = append(ops, builderOp{paper: true, id: newIDs[0], year: 2001, authors: []string{"late-author"}, wantPaperError: true})
	case "unknown-citing":
		cites = append(cites, builderOp{citing: "nowhere", cited: all[0]})
	case "unknown-cited":
		cites = append(cites, builderOp{citing: all[0], cited: "nowhere"})
	case "self-citation":
		cites = append(cites, builderOp{citing: all[len(all)-1], cited: all[len(all)-1]})
	}
	// Interleave: a citation may come before the paper it names.
	for _, c := range cites {
		at := rng.Intn(len(ops) + 1)
		ops = append(ops[:at], append([]builderOp{c}, ops[at:]...)...)
	}
	*ids = all
	return ops
}

// checkInvariants pins the CSR order both builds must produce:
// references strictly ascending, citers in strictly ascending
// (year, index) order.
func checkInvariants(t *testing.T, net *Network) {
	t.Helper()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := int32(0); int(i) < net.N(); i++ {
		prev := int32(-1)
		net.References(i, func(r int32) {
			if r <= prev {
				t.Fatalf("references of %d not strictly ascending", i)
			}
			prev = r
		})
		prev = -1
		net.Citers(i, func(c int32) {
			if prev >= 0 && (net.Year(c) < net.Year(prev) || (net.Year(c) == net.Year(prev) && c <= prev)) {
				t.Fatalf("citers of %d not in (year, index) order", i)
			}
			prev = c
		})
	}
}

// sameNetwork compares two networks through their accessors, then
// field for field.
func sameNetwork(t *testing.T, got, want *Network) {
	t.Helper()
	if got.N() != want.N() || got.Edges() != want.Edges() {
		t.Fatalf("N=%d edges=%d, want %d, %d", got.N(), got.Edges(), want.N(), want.Edges())
	}
	if got.MinYear() != want.MinYear() || got.MaxYear() != want.MaxYear() {
		t.Fatalf("years [%d, %d], want [%d, %d]", got.MinYear(), got.MaxYear(), want.MinYear(), want.MaxYear())
	}
	list := func(each func(int32, func(int32)), i int32) []int32 {
		var out []int32
		each(i, func(j int32) { out = append(out, j) })
		return out
	}
	for i := int32(0); int(i) < want.N(); i++ {
		if !reflect.DeepEqual(got.Paper(i), want.Paper(i)) {
			t.Fatalf("paper %d = %+v, want %+v", i, got.Paper(i), want.Paper(i))
		}
		if j, ok := got.Lookup(want.Paper(i).ID); !ok || j != i {
			t.Fatalf("Lookup(%q) = %d, %v, want %d", want.Paper(i).ID, j, ok, i)
		}
		if g, w := list(got.References, i), list(want.References, i); !reflect.DeepEqual(g, w) {
			t.Fatalf("references of %d = %v, want %v", i, g, w)
		}
		if g, w := list(got.Citers, i), list(want.Citers, i); !reflect.DeepEqual(g, w) {
			t.Fatalf("citers of %d = %v, want %v", i, g, w)
		}
	}
	if _, ok := got.Lookup("nowhere"); ok {
		t.Fatal("Lookup of an unknown ID succeeded")
	}
	if !reflect.DeepEqual(got.authors, want.authors) || !reflect.DeepEqual(got.venues, want.venues) {
		t.Fatalf("tables: authors %v venues %v, want %v, %v", got.authors, got.venues, want.authors, want.venues)
	}
	// The ID maps may split differently between idx and newIDs; their
	// union must agree, and every other field must be equal.
	if g, w := allIDs(got), allIDs(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("ID maps hold %d IDs, want %d", len(g), len(w))
	}
	g, w := *got, *want
	g.idx, g.newIDs, w.idx, w.newIDs = nil, nil, nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatal("networks differ field for field")
	}
}

// allIDs is the union of a network's two ID maps, which must not
// overlap.
func allIDs(net *Network) map[string]int32 {
	m := maps.Clone(net.idx)
	for id, i := range net.newIDs {
		if _, dup := m[id]; dup {
			panic("ID " + id + " in both maps")
		}
		m[id] = i
	}
	return m
}

// TestBuilderSpliceMatchesScratch: over random bases and batches, a
// network grown by NewBuilderFrom + Build — once, or twice in a chain —
// equals a from-scratch NewBuilder over the same papers and edges, and
// fails with the same error on a duplicate ID, an unknown endpoint or a
// self-citation.
func TestBuilderSpliceMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	bads := []string{"", "", "", "duplicate-id", "unknown-citing", "unknown-cited", "self-citation"}
	for trial := 0; trial < 300; trial++ {
		var ids []string
		basePapers := rng.Intn(40)
		if trial%50 == 0 {
			basePapers = 0 // splice onto an empty network
		}
		var gens [][]builderOp
		gens = append(gens, randomBatch(rng, &ids, 0, basePapers, rng.Intn(4*basePapers+1), ""))
		bad := bads[rng.Intn(len(bads))]
		gens = append(gens, randomBatch(rng, &ids, 1, 1+rng.Intn(6), rng.Intn(20), ""))
		gens = append(gens, randomBatch(rng, &ids, 2, 1+rng.Intn(6), rng.Intn(20), bad))

		scratch := NewBuilder()
		for _, ops := range gens {
			applyOps(t, scratch, ops)
		}
		want, wantErr := scratch.Build()

		var got *Network
		var gotErr error
		for g, ops := range gens {
			b := NewBuilder()
			if g > 0 {
				b = NewBuilderFrom(got)
			}
			applyOps(t, b, ops)
			if got, gotErr = b.Build(); gotErr != nil {
				if g != len(gens)-1 {
					t.Fatalf("trial %d: generation %d failed: %v", trial, g, gotErr)
				}
				break
			}
			checkInvariants(t, got)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d (%s): spliced error %v, scratch error %v", trial, bad, gotErr, wantErr)
		}
		if bad != "" && bad != "duplicate-id" && wantErr == nil {
			t.Fatalf("trial %d: %s did not fail", trial, bad)
		}
		if wantErr == nil {
			checkInvariants(t, want)
			sameNetwork(t, got, want)
		}
	}
}

// TestBuilderSpliceLeavesBaseIntact: growing a network, including its
// author and venue tables, must not touch the base it was spliced onto.
func TestBuilderSpliceLeavesBaseIntact(t *testing.T) {
	base := buildTiny(t)
	before := *base
	beforeAuthors := append([]string(nil), base.authors...)
	for k := 0; k < 2; k++ {
		b := NewBuilderFrom(base)
		if _, err := b.AddPaper(fmt.Sprintf("x%d", k), 2030, []string{"new-author", "alice"}, "new-venue"); err != nil {
			t.Fatal(err)
		}
		b.AddEdge(fmt.Sprintf("x%d", k), "p0")
		b.AddEdge("p1", fmt.Sprintf("x%d", k))
		grown, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if grown.NumAuthors() != base.NumAuthors()+1 || grown.MaxYear() != 2030 {
			t.Fatalf("grown: %d authors, max year %d", grown.NumAuthors(), grown.MaxYear())
		}
	}
	if !reflect.DeepEqual(*base, before) || !reflect.DeepEqual(base.authors[:len(beforeAuthors)], beforeAuthors) {
		t.Fatal("base network mutated by a spliced build")
	}
	if _, ok := base.Lookup("x0"); ok {
		t.Fatal("base index gained a spliced paper")
	}
}
