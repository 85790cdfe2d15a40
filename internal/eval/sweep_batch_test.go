package eval

import (
	"math/rand"
	"strconv"
	"testing"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/metrics"
)

// randomCitationNet builds a random preferential-ish citation network big
// enough that the batched sweep exercises multi-cell partitions and
// partition parallelism.
func randomCitationNet(t testing.TB, seed int64, size int) *graph.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < size; i++ {
		if _, err := b.AddPaper("p"+strconv.Itoa(i), 1980+i/10, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < size; i++ {
		for r := rng.Intn(5); r > 0; r-- {
			b.AddEdgeByIndex(int32(i), int32(rng.Intn(i)))
		}
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSweepAttRankMatchesSequentialSweep pins the rewritten sweep's
// contract: the batched implementation returns, cell for cell in grid
// order, exactly the value-or-error the old sequential implementation
// produced — because RankBatch scores are bit-identical to op.Rank and
// the scratch metrics are bit-identical to the allocating ones.
func TestSweepAttRankMatchesSequentialSweep(t *testing.T) {
	net := randomCitationNet(t, 515, 300)
	s, err := NewSplit(net, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	truth := s.GroundTruth()
	grid := AttRankGrid(-0.25)
	m := Rho()

	cells := SweepAttRank(s, truth, grid, m)
	if len(cells) != len(grid) {
		t.Fatalf("cells = %d, want %d", len(cells), len(grid))
	}

	op := core.OperatorFor(s.Current)
	for i, p := range grid {
		q := cells[i].Params
		if q.Alpha != p.Alpha || q.Beta != p.Beta || q.Gamma != p.Gamma ||
			q.AttentionYears != p.AttentionYears || q.W != p.W {
			t.Fatalf("cell %d carries params %+v, want grid order preserved (%+v)", i, q, p)
		}
		res, err := op.Rank(s.TN, p)
		if err != nil {
			if cells[i].Err == nil {
				t.Fatalf("cell %d: sequential errored (%v), batched did not", i, err)
			}
			continue
		}
		want, wantErr := metrics.Spearman(res.Scores, truth)
		if (wantErr == nil) != (cells[i].Err == nil) {
			t.Fatalf("cell %d: err = %v, want %v", i, cells[i].Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if cells[i].Value != want {
			t.Fatalf("cell %d (α=%.1f β=%.1f y=%d): value = %v, want exactly %v",
				i, p.Alpha, p.Beta, p.AttentionYears, cells[i].Value, want)
		}
	}
}
