package eval

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"attrank/internal/core"
	"attrank/internal/metrics"
)

// TestSweepAttRankUnitPlan pins the sweep's work-unit plan on a grid
// of two W values, so (y, w) partitions are not just the five y values:
// every grid cell is in exactly one unit, a unit holds at most
// core.Lanes cells that share (y, w) in descending α, every lane group
// RankBatch forms from the whole grid is one unit, each partition is
// cut into the fewest units, and units come longest first (descending
// leading α).
func TestSweepAttRankUnitPlan(t *testing.T) {
	grid := append(AttRankGrid(-0.25), AttRankGrid(-0.4)...)
	units := sweepUnits(grid)

	seen := make([]int, len(grid))
	type yw struct {
		y int
		w float64
	}
	perPartition := map[yw]int{}
	for _, p := range grid {
		perPartition[yw{p.AttentionYears, p.W}]++
	}
	wantUnits := 0
	for _, k := range perPartition {
		wantUnits += (k + core.Lanes - 1) / core.Lanes
	}
	if len(units) != wantUnits {
		t.Fatalf("%d units, want %d (each partition in runs of %d)", len(units), wantUnits, core.Lanes)
	}
	for u, unit := range units {
		if len(unit) == 0 || len(unit) > core.Lanes {
			t.Fatalf("unit %d holds %d cells, want 1..%d", u, len(unit), core.Lanes)
		}
		lead := grid[unit[0]]
		for k, gi := range unit {
			seen[gi]++
			p := grid[gi]
			if p.AttentionYears != lead.AttentionYears || p.W != lead.W {
				t.Fatalf("unit %d mixes (y, w) = (%d, %v) and (%d, %v)", u, lead.AttentionYears, lead.W, p.AttentionYears, p.W)
			}
			if k > 0 && p.Alpha > grid[unit[k-1]].Alpha {
				t.Fatalf("unit %d is not in descending α: %v after %v", u, p.Alpha, grid[unit[k-1]].Alpha)
			}
		}
		if u > 0 && lead.Alpha > grid[units[u-1][0]].Alpha {
			t.Fatalf("unit %d (leading α %v) comes after a shorter unit (leading α %v)", u, lead.Alpha, grid[units[u-1][0]].Alpha)
		}
	}
	isUnit := map[string]bool{}
	for _, unit := range units {
		isUnit[fmt.Sprint(unit)] = true
	}
	for _, g := range core.LaneGroups(grid) {
		if !isUnit[fmt.Sprint(g)] {
			t.Fatalf("lane group %v is not a unit", g)
		}
	}
	for gi, k := range seen {
		if k != 1 {
			t.Fatalf("grid cell %d is in %d units, want exactly 1", gi, k)
		}
	}
}

// TestSweepAttRankAtEveryGOMAXPROCS runs the sweep with one, two and
// five workers pulling units, and requires every run to return, cell
// for cell, the value or error of the sequential per-cell op.Rank +
// Spearman. The GOMAXPROCS setting is restored afterwards.
func TestSweepAttRankAtEveryGOMAXPROCS(t *testing.T) {
	net := randomCitationNet(t, 516, 400)
	s, err := NewSplit(net, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	truth := s.GroundTruth()
	grid := AttRankGrid(-0.25)
	op := core.OperatorFor(s.Current)
	want := make([]AttRankCell, len(grid))
	for i, p := range grid {
		want[i].Params = p
		res, err := op.Rank(s.TN, p)
		if err != nil {
			want[i].Err = err
			continue
		}
		want[i].Value, want[i].Err = metrics.Spearman(res.Scores, truth)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 5} {
		runtime.GOMAXPROCS(procs)
		cells := SweepAttRank(s, truth, grid, Rho())
		if len(cells) != len(grid) {
			t.Fatalf("GOMAXPROCS=%d: %d cells, want %d", procs, len(cells), len(grid))
		}
		for i, c := range cells {
			w := want[i]
			if !reflect.DeepEqual(c.Params, w.Params) || (c.Err == nil) != (w.Err == nil) || c.Value != w.Value {
				t.Fatalf("GOMAXPROCS=%d cell %d (%+v): value %v err %v, want %v err %v",
					procs, i, w.Params, c.Value, c.Err, w.Value, w.Err)
			}
		}
	}
}
