package attrank_test

import (
	"encoding/json"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	benchFileRe = regexp.MustCompile(`BENCH_[a-z0-9]+\.json`)
	backtickRe  = regexp.MustCompile("`([^`\n]+)`")
	// fieldRe matches a snake_case benchmark field name, optionally a
	// dotted path into nested objects and with * globs.
	fieldRe = regexp.MustCompile(`^[a-z][a-z0-9_*]*(\.[a-z0-9_*]+)*$`)
)

// fieldSuffixes are the unit suffixes that mark a backticked token as a
// measured figure rather than an API or flag name.
var fieldSuffixes = []string{"_ns", "_us", "_ms", "_pct", "_speedup", "_per_sec", "_nnz"}

// TestDocsCiteCommittedBenchFields keeps README.md and DESIGN.md honest
// against the committed benchmark files: every BENCH_<x>.json they name
// exists at the repository root, and in a paragraph that names one,
// every backticked field with a unit suffix is a key of that file.
// Paragraphs that name no BENCH file are out of scope; their unit-like
// tokens are API fields or names from the benchmark/ module.
func TestDocsCiteCommittedBenchFields(t *testing.T) {
	keys := map[string][]string{} // BENCH file -> dotted key paths
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, para := range paragraphs(string(data)) {
			files := benchFileRe.FindAllString(para, -1)
			if len(files) == 0 {
				continue
			}
			var cited []string
			for _, f := range files {
				if _, ok := keys[f]; !ok {
					keys[f] = benchKeys(t, f)
				}
				cited = append(cited, keys[f]...)
			}
			for _, m := range backtickRe.FindAllStringSubmatch(para, -1) {
				field := m[1]
				if !fieldRe.MatchString(field) || !hasFieldSuffix(field) {
					continue
				}
				checked++
				if !matchesAny(field, cited) {
					t.Errorf("%s: `%s` is not a field of %s, in the paragraph:\n%s",
						doc, field, strings.Join(files, ", "), para)
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no BENCH field citations found; the docs or this test's patterns changed")
	}
}

// paragraphs splits markdown text at blank lines.
func paragraphs(text string) []string {
	var out []string
	var cur []string
	for _, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "" {
			if len(cur) > 0 {
				out = append(out, strings.Join(cur, "\n"))
				cur = nil
			}
			continue
		}
		cur = append(cur, line)
	}
	if len(cur) > 0 {
		out = append(out, strings.Join(cur, "\n"))
	}
	return out
}

// benchKeys reads a committed BENCH file and returns the dotted path of
// every key in it, nested objects included; the keys of objects inside
// an array take the array's key as their prefix. A missing file fails
// the test: the docs must not cite a file that is not committed.
func benchKeys(t *testing.T, file string) []string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Errorf("docs cite %s, which is not committed: %v", file, err)
		return nil
	}
	var root any
	if err := json.Unmarshal(data, &root); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	var keys []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				keys = append(keys, prefix+k)
				walk(prefix+k+".", child)
			}
		case []any:
			for _, elem := range v {
				walk(prefix, elem)
			}
		}
	}
	walk("", root)
	return keys
}

func hasFieldSuffix(field string) bool {
	for _, s := range fieldSuffixes {
		if strings.HasSuffix(field, s) {
			return true
		}
	}
	return false
}

// matchesAny reports whether field, which may hold * globs, names at
// least one of keys.
func matchesAny(field string, keys []string) bool {
	for _, k := range keys {
		if ok, _ := path.Match(field, k); ok {
			return true
		}
	}
	return false
}

// TestBenchFieldsCarrySpread: every field of a committed BENCH file
// (an object-valued top-level key) is a bench.sh reduction of at least
// five go test -bench runs, {median, min, max, runs} with
// min ≤ median ≤ max.
func TestBenchFieldsCarrySpread(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH files: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var root map[string]json.RawMessage
		if err := json.Unmarshal(data, &root); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		fields := 0
		for k, raw := range root {
			if raw[0] != '{' {
				continue
			}
			fields++
			var f struct {
				Median, Min, Max *float64
				Runs             int
			}
			if err := json.Unmarshal(raw, &f); err != nil || f.Median == nil || f.Min == nil || f.Max == nil {
				t.Errorf("%s: %s = %s, want {median, min, max, runs}", file, k, raw)
				continue
			}
			if !(*f.Min <= *f.Median && *f.Median <= *f.Max) || f.Runs < 5 {
				t.Errorf("%s: %s = %s, want min ≤ median ≤ max over at least 5 runs", file, k, raw)
			}
		}
		if fields == 0 {
			t.Errorf("%s holds no fields", file)
		}
	}
}
