package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"attrank/internal/core"
	"attrank/internal/synth"
)

// reportKeys returns the sorted dotted path of every key in a JSON
// report file, nested objects included.
func reportKeys(t *testing.T, file string) []string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var root map[string]any
	if err := json.Unmarshal(data, &root); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	var keys []string
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			keys = append(keys, prefix+k)
			if child, ok := v.(map[string]any); ok {
				walk(prefix+k+".", child)
			}
		}
	}
	walk("", root)
	sort.Strings(keys)
	return keys
}

// assertSameKeys requires a fresh report to carry exactly the keys of
// the committed one, so a renamed report field fails until the
// committed file is regenerated.
func assertSameKeys(t *testing.T, fresh, committed string) {
	t.Helper()
	if got, want := reportKeys(t, fresh), reportKeys(t, committed); !reflect.DeepEqual(got, want) {
		t.Errorf("report keys differ from the committed %s:\n got %v\nwant %v", committed, got, want)
	}
}

// TestCoreReport runs the default mode small and checks its report
// against BENCH_core.json's key set.
func TestCoreReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "core.json")
	if err := run(2000, out, 2); err != nil {
		t.Fatal(err)
	}
	assertSameKeys(t, out, filepath.Join("..", "..", "BENCH_core.json"))
}

// TestIngestGates runs -ingest at 5k papers: deviation within the push
// bound, replay bit-identity, reconcile == full-only chain and bounded
// live staleness are errors from runIngest. The report must show the
// deviation and reconcile gates were reached, and carry
// BENCH_ingest.json's key set.
func TestIngestGates(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ingest.json")
	if err := runIngest(5000, 128, 5, 50, 40, out); err != nil {
		t.Fatal(err)
	}
	assertSameKeys(t, out, filepath.Join("..", "..", "BENCH_ingest.json"))
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var r ingestReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if r.DeviationChecks == 0 || r.Reconciles == 0 || r.IngestReconciles == 0 {
		t.Errorf("a gate never ran: %d deviation checks, %d reconciles, %d live reconciles",
			r.DeviationChecks, r.Reconciles, r.IngestReconciles)
	}
}

// TestIngestArmWaitIsBounded: a write whose epoch never publishes (here
// a duplicate citation, which ranks nothing) ends the arm with an error
// naming the write instead of spinning forever.
func TestIngestArmWaitIsBounded(t *testing.T) {
	defer func(d time.Duration) { epochWait = d }(epochWait)
	epochWait = 100 * time.Millisecond
	base, err := synth.GenerateSeeded(dblp(500), 1)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := newEdges(base, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16, Workers: 1}
	_, _, _, _, err = runIngestArm(base, p, [][2]int32{edges[0], edges[0]}, 0)
	if err == nil || !strings.Contains(err.Error(), "live write 1") {
		t.Fatalf("err = %v, want a bounded wait on live write 1", err)
	}
}
