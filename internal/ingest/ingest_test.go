package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/sparse"
	"attrank/internal/synth"
)

func testParams() core.Params {
	return core.Params{Alpha: 0.3, Beta: 0.4, Gamma: 0.3, AttentionYears: 3, W: -0.3}
}

// testConfig debounces far in the future so tests drive re-ranking
// explicitly with Flush.
func testConfig(dir string) Config {
	return Config{
		Dir:         dir,
		Params:      testParams(),
		RerankAfter: 1 << 20,
		RerankEvery: time.Hour,
	}
}

func seedNet(t *testing.T) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	add := func(id string, year int, authors []string, venue string) {
		t.Helper()
		if _, err := b.AddPaper(id, year, authors, venue); err != nil {
			t.Fatal(err)
		}
	}
	add("old", 1990, []string{"alice"}, "V")
	add("mid", 1994, []string{"bob"}, "V")
	add("hot", 1996, []string{"carol"}, "W")
	for _, e := range [][2]string{{"mid", "old"}, {"hot", "old"}, {"hot", "mid"}} {
		b.AddEdge(e[0], e[1])
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func mustOpen(t *testing.T, seed *graph.Network, cfg Config) *Ingester {
	t.Helper()
	ing, err := Open(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	return ing
}

func topIDs(r *Ranking, k int) []string {
	if r == nil {
		return nil
	}
	if k > r.Net.N() {
		k = r.Net.N()
	}
	ids := make([]string, k)
	for i := int32(0); int(i) < r.Net.N(); i++ {
		if pos := r.Positions[i]; pos < k {
			ids[pos] = r.Net.Paper(i).ID
		}
	}
	return ids
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestOpenSeedPublishesInitialRanking(t *testing.T) {
	dir := t.TempDir()
	ing := mustOpen(t, seedNet(t), testConfig(dir))
	r := ing.Ranking()
	if r == nil || r.Epoch != 1 {
		t.Fatalf("initial ranking = %+v", r)
	}
	if r.Net.N() != 3 || r.Stats.Papers != 3 || r.Stats.Edges != 3 {
		t.Errorf("stats = %+v", r.Stats)
	}
	if len(r.Positions) != 3 {
		t.Errorf("positions = %v", r.Positions)
	}
	// The seed must have been made durable immediately.
	if _, err := os.Stat(filepath.Join(dir, "snapshot.anb")); err != nil {
		t.Errorf("seed snapshot missing: %v", err)
	}
	st := ing.Status()
	if st.Epoch != 1 || st.Papers != 3 || st.Citations != 3 || st.Pending != 0 {
		t.Errorf("status = %+v", st)
	}
	if st.LastIterations == 0 {
		t.Error("status has no iteration count")
	}
}

func TestOpenEmptyCorpus(t *testing.T) {
	ing := mustOpen(t, nil, testConfig(t.TempDir()))
	if r := ing.Ranking(); r != nil {
		t.Fatalf("empty corpus published ranking %+v", r)
	}
	if _, err := ing.AddPaper(PaperMut{ID: "p1", Year: 2020}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	r := ing.Ranking()
	if r == nil || r.Epoch != 1 || r.Net.N() != 1 {
		t.Fatalf("ranking after first paper = %+v", r)
	}
}

func TestMutationsAdvanceEpoch(t *testing.T) {
	ing := mustOpen(t, seedNet(t), testConfig(t.TempDir()))
	if _, err := ing.AddPaper(PaperMut{ID: "new", Year: 1998, Authors: []string{"dave", "alice"}, Venue: "V"}); err != nil {
		t.Fatal(err)
	}
	for _, cited := range []string{"hot", "mid"} {
		if _, err := ing.AddCitation(CitationMut{Citing: "new", Cited: cited}); err != nil {
			t.Fatal(err)
		}
	}
	if st := ing.Status(); st.Pending != 3 {
		t.Fatalf("pending = %d, want 3", st.Pending)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	r := ing.Ranking()
	if r.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", r.Epoch)
	}
	if r.Net.N() != 4 || r.Net.Edges() != 5 {
		t.Errorf("corpus = %d papers, %d edges", r.Net.N(), r.Net.Edges())
	}
	if _, ok := r.Net.Lookup("new"); !ok {
		t.Error("new paper missing from ranked corpus")
	}
	// Author/venue tables extended without duplicating shared entries.
	if r.Net.NumAuthors() != 4 { // alice, bob, carol + dave
		t.Errorf("authors = %d, want 4", r.Net.NumAuthors())
	}
	if st := ing.Status(); st.Pending != 0 || st.Papers != 4 || st.Citations != 5 {
		t.Errorf("status after flush = %+v", st)
	}
}

func TestIdempotentDuplicates(t *testing.T) {
	ing := mustOpen(t, seedNet(t), testConfig(t.TempDir()))
	dup, err := ing.AddPaper(PaperMut{ID: "old", Year: 1990})
	if err != nil || !dup {
		t.Errorf("base paper re-add: dup=%v err=%v", dup, err)
	}
	dup, err = ing.AddCitation(CitationMut{Citing: "mid", Cited: "old"})
	if err != nil || !dup {
		t.Errorf("base edge re-add: dup=%v err=%v", dup, err)
	}
	// A pending (uncompacted) paper is also a duplicate target.
	if _, err := ing.AddPaper(PaperMut{ID: "fresh", Year: 2000}); err != nil {
		t.Fatal(err)
	}
	dup, err = ing.AddPaper(PaperMut{ID: "fresh", Year: 2001})
	if err != nil || !dup {
		t.Errorf("pending paper re-add: dup=%v err=%v", dup, err)
	}
	if _, err := ing.AddCitation(CitationMut{Citing: "fresh", Cited: "old"}); err != nil {
		t.Fatal(err)
	}
	dup, err = ing.AddCitation(CitationMut{Citing: "fresh", Cited: "old"})
	if err != nil || !dup {
		t.Errorf("pending edge re-add: dup=%v err=%v", dup, err)
	}
	// Duplicates do not grow the corpus.
	if st := ing.Status(); st.Papers != 4 || st.Citations != 4 {
		t.Errorf("status = %+v", st)
	}
}

func TestValidationErrors(t *testing.T) {
	ing := mustOpen(t, seedNet(t), testConfig(t.TempDir()))
	cases := []struct {
		name string
		mut  Mutation
	}{
		{"empty id", paperMut("", 2000, nil, "")},
		{"self citation", citeMut("old", "old")},
		{"unknown citing", citeMut("ghost", "old")},
		{"unknown cited", citeMut("old", "ghost")},
		{"half citation", Mutation{Kind: KindCitation, Citation: CitationMut{Citing: "old"}}},
		{"unknown kind", Mutation{Kind: 42}},
		// Fields the WAL encoding cannot hold are item errors, not a
		// systemic append failure that would sink the whole batch.
		{"id past u16", paperMut(strings.Repeat("x", 1<<16), 2000, nil, "")},
		{"author past u16", paperMut("a", 2000, []string{strings.Repeat("x", 1<<16)}, "")},
		{"authors past u16", paperMut("a", 2000, make([]string, 1<<16), "")},
		{"year past int32", paperMut("a", 1<<40, nil, "")},
	}
	for _, c := range cases {
		res, err := ing.ApplyBatch([]Mutation{c.mut})
		if err != nil {
			t.Fatalf("%s: systemic error %v", c.name, err)
		}
		if len(res.Errors) != 1 || res.Accepted != 0 {
			t.Errorf("%s: result %+v, want one item error", c.name, res)
		}
	}
	if st := ing.Status(); st.Pending != 0 {
		t.Errorf("rejected mutations left pending state: %+v", st)
	}
	res, err := ing.ApplyBatch([]Mutation{paperMut(strings.Repeat("x", 1<<16), 2000, nil, ""), paperMut("ok", 2000, nil, "")})
	if err != nil || res.Accepted != 1 || len(res.Errors) != 1 || res.Errors[0].Index != 0 {
		t.Errorf("batch with one unloggable paper: %+v, %v; want the other paper accepted", res, err)
	}
}

func TestBatchIntraReferences(t *testing.T) {
	ing := mustOpen(t, seedNet(t), testConfig(t.TempDir()))
	res, err := ing.ApplyBatch([]Mutation{
		paperMut("b1", 1999, []string{"erin"}, "V"),
		paperMut("b2", 1999, nil, ""),
		citeMut("b2", "b1"),            // both introduced earlier in this batch
		citeMut("b1", "old"),           // batch paper → base paper
		citeMut("b2", "b1"),            // duplicate within the batch
		paperMut("old", 1990, nil, ""), // duplicate of base
		citeMut("b1", "nope"),          // invalid
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 4 || res.Duplicates != 2 || len(res.Errors) != 1 {
		t.Fatalf("result = %+v", res)
	}
	if res.Errors[0].Index != 6 {
		t.Errorf("error index = %d, want 6", res.Errors[0].Index)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	r := ing.Ranking()
	if r.Net.N() != 5 || r.Net.Edges() != 5 {
		t.Errorf("corpus = %d papers, %d edges, want 5, 5", r.Net.N(), r.Net.Edges())
	}
}

func TestDebounceByCount(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.RerankAfter = 3
	ing := mustOpen(t, seedNet(t), cfg)
	for i := 0; i < 3; i++ {
		if _, err := ing.AddPaper(PaperMut{ID: fmt.Sprintf("k%d", i), Year: 2000}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "count-triggered rerank", func() bool {
		r := ing.Ranking()
		return r != nil && r.Epoch >= 2 && r.Net.N() == 6
	})
}

func TestDebounceByTimer(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.RerankEvery = 30 * time.Millisecond
	ing := mustOpen(t, seedNet(t), cfg)
	if _, err := ing.AddPaper(PaperMut{ID: "late", Year: 2000}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "timer-triggered rerank", func() bool {
		r := ing.Ranking()
		return r != nil && r.Epoch >= 2 && r.Net.N() == 4
	})
}

func TestSnapshotPolicyResetsWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SnapshotEvery = 1
	ing := mustOpen(t, seedNet(t), cfg)
	if _, err := ing.AddPaper(PaperMut{ID: "snap", Year: 2001}); err != nil {
		t.Fatal(err)
	}
	if st := ing.Status(); st.WALBytes <= int64(len(walMagic)) {
		t.Fatalf("WAL did not grow: %+v", st)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	st := ing.Status()
	if st.WALBytes != int64(len(walMagic)) {
		t.Errorf("WAL not reset after snapshot: %d bytes", st.WALBytes)
	}
	if st.Snapshots != 2 { // seed snapshot + policy snapshot
		t.Errorf("snapshots = %d, want 2", st.Snapshots)
	}
	// The snapshot alone must recover the full corpus.
	ing.Close()
	ing2 := mustOpen(t, nil, testConfig(dir))
	if r := ing2.Ranking(); r.Net.N() != 4 {
		t.Errorf("recovered %d papers, want 4", r.Net.N())
	}
}

func TestForcedSnapshotRequiresEmptyDelta(t *testing.T) {
	ing := mustOpen(t, seedNet(t), testConfig(t.TempDir()))
	if _, err := ing.AddPaper(PaperMut{ID: "pending", Year: 2001}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Snapshot(); err == nil {
		t.Error("snapshot with pending mutations accepted")
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Snapshot(); err != nil {
		t.Errorf("snapshot after flush: %v", err)
	}
}

// TestWarmStartConvergesFaster is an acceptance criterion: after a small
// mutation batch, the tracker's warm-started re-rank must take fewer
// power iterations than a cold start on the identical corpus. A toy graph
// converges in a handful of iterations either way, so this uses a
// synthetic corpus large enough for the iteration counts to separate.
func TestWarmStartConvergesFaster(t *testing.T) {
	p := synth.HepTh()
	p.Papers = 400
	p.AuthorPool = 150
	seed, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t.TempDir())
	cfg.Params = core.Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.2}
	ing := mustOpen(t, seed, cfg)

	// A small incremental batch: one new paper citing three existing ones.
	targets := topIDs(ing.Ranking(), 3)
	muts := []Mutation{paperMut("fresh-arrival", seed.MaxYear()+1, []string{"new author"}, "")}
	for _, id := range targets {
		muts = append(muts, citeMut("fresh-arrival", id))
	}
	res, err := ing.ApplyBatch(muts)
	if err != nil || res.Accepted != len(muts) {
		t.Fatalf("batch: %+v, %v", res, err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	r := ing.Ranking()
	cold, err := core.Rank(r.Net, r.RankedAt, ing.Params())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Result.Converged || !cold.Converged {
		t.Fatalf("convergence: warm=%v cold=%v", r.Result.Converged, cold.Converged)
	}
	if r.Result.Iterations >= cold.Iterations {
		t.Errorf("warm rerank took %d iterations, cold %d — warm start must be faster",
			r.Result.Iterations, cold.Iterations)
	}
}

func TestClosedIngesterRejectsWrites(t *testing.T) {
	ing := mustOpen(t, seedNet(t), testConfig(t.TempDir()))
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.AddPaper(PaperMut{ID: "x", Year: 2000}); err == nil {
		t.Error("write after Close accepted")
	}
	if err := ing.Flush(); err == nil {
		t.Error("flush after Close accepted")
	}
	if err := ing.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestConcurrentWritersAndReaders hammers the ingester from writer and
// reader goroutines while the scheduler compacts aggressively; run under
// -race this is the core swap-safety test at the ingest layer.
func TestConcurrentWritersAndReaders(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.RerankAfter = 8
	cfg.RerankEvery = 5 * time.Millisecond
	cfg.SnapshotEvery = 32
	ing := mustOpen(t, seedNet(t), cfg)

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if _, err := ing.AddPaper(PaperMut{ID: id, Year: 2000 + i%5, Authors: []string{"auth"}}); err != nil {
					t.Errorf("AddPaper(%s): %v", id, err)
					return
				}
				if _, err := ing.AddCitation(CitationMut{Citing: id, Cited: "old"}); err != nil {
					t.Errorf("AddCitation(%s): %v", id, err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if r := ing.Ranking(); r != nil {
					// Every published view must be internally consistent.
					if len(r.Positions) != r.Net.N() || len(r.Result.Scores) != r.Net.N() {
						t.Errorf("epoch %d: inconsistent view (%d positions, %d scores, %d papers)",
							r.Epoch, len(r.Positions), len(r.Result.Scores), r.Net.N())
						return
					}
				}
				ing.Status()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	r := ing.Ranking()
	want := 3 + writers*perWriter
	if r.Net.N() != want {
		t.Errorf("final corpus = %d papers, want %d", r.Net.N(), want)
	}
	if r.Net.Edges() != 3+writers*perWriter {
		t.Errorf("final corpus = %d edges, want %d", r.Net.Edges(), 3+writers*perWriter)
	}
}

// TestRerankReusesCompiledOperator pins the compile-once contract of the
// re-rank path: within a compaction epoch the base network pointer is
// stable, so every debounced re-rank hits the cached ranking operator —
// the matrix is normalized and cut into tiles at most once per epoch,
// not once per re-rank.
func TestRerankReusesCompiledOperator(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Params.Workers = -1 // rank on the pool, as a server does
	ing := mustOpen(t, seedNet(t), cfg)
	if err := ing.Flush(); err != nil { // settle the initial epoch
		t.Fatal(err)
	}

	compiles := core.KernelCompiles()
	builds := sparse.TiledBuilds()
	for i := 0; i < 3; i++ {
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if d := core.KernelCompiles() - compiles; d != 0 {
		t.Errorf("3 re-ranks of an unchanged corpus compiled %d matrices, want 0", d)
	}
	if d := sparse.TiledBuilds() - builds; d != 0 {
		t.Errorf("3 re-ranks of an unchanged corpus rebuilt %d tiled layouts, want 0", d)
	}

	// A mutation compacts into a fresh network: exactly one new compile
	// and one conversion, however many re-ranks follow.
	if _, err := ing.AddPaper(PaperMut{ID: "fresh", Year: 1997}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if d := core.KernelCompiles() - compiles; d != 1 {
		t.Errorf("post-mutation re-ranks compiled %d matrices, want 1", d)
	}
	if d := sparse.TiledBuilds() - builds; d != 1 {
		t.Errorf("post-mutation re-ranks rebuilt %d tiled layouts, want 1", d)
	}
}
