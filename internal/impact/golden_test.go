package impact

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// goldenEpoch is the serialized shape of a full indicator epoch: exact
// bit patterns for floating scores (so a single-ulp drift in the kernels
// fails the diff loudly), thresholds and classes per indicator.
type goldenEpoch struct {
	Window       int                        `json:"window"`
	PRAlpha      float64                    `json:"pr_alpha"`
	PRIterations int                        `json:"pr_iterations"`
	PRConverged  bool                       `json:"pr_converged"`
	Indicators   map[string]goldenIndicator `json:"indicators"`
}

type goldenIndicator struct {
	// Bits are math.Float64bits of each score, hex-encoded: the golden
	// contract is bit-equality, and decimal JSON round-trips are not
	// trusted to preserve that.
	Bits       []string  `json:"bits"`
	Thresholds [4]string `json:"thresholds"`
	Classes    []int     `json:"classes"`
}

func bitsOf(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

func goldenOf(e *Epoch, n int) goldenEpoch {
	g := goldenEpoch{
		Window:       e.Window,
		PRAlpha:      e.PRAlpha,
		PRIterations: e.PRIterations,
		PRConverged:  e.PRConverged,
		Indicators:   make(map[string]goldenIndicator, NumIndicators),
	}
	for ind := Indicator(0); ind < NumIndicators; ind++ {
		gi := goldenIndicator{Bits: make([]string, n), Classes: make([]int, n)}
		for i := 0; i < n; i++ {
			gi.Bits[i] = bitsOf(e.Scores(ind)[i])
			gi.Classes[i] = int(e.Class(ind, int32(i)))
		}
		for c, thr := range e.Thresholds(ind).Top {
			gi.Thresholds[c] = bitsOf(thr)
		}
		g.Indicators[ind.String()] = gi
	}
	return g
}

// TestGoldenEpoch locks the full per-epoch indicator state of a fixed
// small corpus into testdata/epoch_small.json. Any change to the
// AttRank kernel, the PageRank promotion, the impulse window semantics
// or the threshold derivation shows up here as a bit-level diff.
// Regenerate deliberately with: go test ./internal/impact -run Golden -update
func TestGoldenEpoch(t *testing.T) {
	net := randomNet(t, 1234, 120)
	e := computeEpoch(t, net, Config{})
	got := goldenOf(e, net.N())

	path := filepath.Join("testdata", "epoch_small.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want goldenEpoch
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if got.Window != want.Window || got.PRAlpha != want.PRAlpha ||
		got.PRIterations != want.PRIterations || got.PRConverged != want.PRConverged {
		t.Fatalf("epoch header drifted: got {w=%d α=%v it=%d conv=%v}, want {w=%d α=%v it=%d conv=%v}",
			got.Window, got.PRAlpha, got.PRIterations, got.PRConverged,
			want.Window, want.PRAlpha, want.PRIterations, want.PRConverged)
	}
	for name, wi := range want.Indicators {
		gi, ok := got.Indicators[name]
		if !ok {
			t.Fatalf("indicator %s missing from computed epoch", name)
		}
		if gi.Thresholds != wi.Thresholds {
			t.Errorf("%s: thresholds drifted: got %v, want %v", name, gi.Thresholds, wi.Thresholds)
		}
		if len(gi.Bits) != len(wi.Bits) {
			t.Fatalf("%s: %d scores, golden has %d", name, len(gi.Bits), len(wi.Bits))
		}
		for i := range wi.Bits {
			if gi.Bits[i] != wi.Bits[i] {
				t.Fatalf("%s: score %d bits %s, golden %s (not bit-identical)", name, i, gi.Bits[i], wi.Bits[i])
			}
			if gi.Classes[i] != wi.Classes[i] {
				t.Fatalf("%s: class %d = C%d, golden C%d", name, i, gi.Classes[i], wi.Classes[i])
			}
		}
	}
	if len(got.Indicators) != len(want.Indicators) {
		t.Fatalf("indicator set drifted: %d vs golden %d", len(got.Indicators), len(want.Indicators))
	}
}
