package sparse

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refLists is a citation corpus by column: refs[c] are the rows column
// c cites, strictly ascending.
type refLists [][]int32

// stochastic wraps the lists in the pattern form, as graph.Network's
// StochasticMatrix does.
func (l refLists) stochastic(t testing.TB) *Stochastic {
	t.Helper()
	ptr := make([]int32, len(l)+1)
	var idx []int32
	for c, refs := range l {
		idx = append(idx, refs...)
		ptr[c+1] = int32(len(idx))
	}
	s, err := NewCitationStochastic(len(l), ptr, idx)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// skewed draws an id in [0, n) with a quadratic preference for low ids,
// so a few rows collect most citations and most rows tie on their
// counts.
func skewed(rng *rand.Rand, n int) int32 {
	u := rng.Float64()
	return int32(min(float64(n)*u*u, float64(n-1)))
}

// cite adds r to c's reference list unless it is c itself or already
// there.
func (l refLists) cite(c, r int32) {
	refs := l[c]
	if k, found := slices.BinarySearch(refs, r); !found && r != c {
		l[c] = slices.Insert(refs, k, r)
	}
}

// corpus returns n papers, the first cites of them citing about refs
// papers each and the rest dangling.
func corpus(rng *rand.Rand, n, citing, refs int) refLists {
	l := make(refLists, n)
	for c := 0; c < citing; c++ {
		for k := rng.Intn(2 * refs); k > 0; k-- {
			l.cite(int32(c), skewed(rng, n))
		}
	}
	return l
}

// spliceShape is one step of a splice chain.
type spliceShape struct {
	papers   int // new papers, each citing 1–3 old ones unless dangling
	dangling int // of those, how many cite nothing
	newNew   int // citations among the new papers
	oldOld   int // citations added between old papers
}

// splice returns l grown by one step of shape sh, leaving l intact:
// old papers keep their ids and every old citation stays.
func (l refLists) splice(rng *rand.Rand, sh spliceShape) refLists {
	n0 := len(l)
	next := make(refLists, n0, n0+sh.papers)
	for c, refs := range l {
		next[c] = slices.Clone(refs)
	}
	for i := 0; i < sh.papers; i++ {
		next = append(next, nil)
		if i < sh.dangling {
			continue
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			next.cite(int32(n0+i), skewed(rng, n0))
		}
	}
	for i := 0; i < sh.newNew && sh.papers > 1; i++ {
		next.cite(int32(n0+rng.Intn(sh.papers)), int32(n0+rng.Intn(sh.papers)))
	}
	for i := 0; i < sh.oldOld; i++ {
		next.cite(int32(rng.Intn(n0)), skewed(rng, n0))
	}
	return next
}

// layoutOnly returns a copy of t without its pool and scratch pools,
// the fields a derived and a compiled layout may not share.
func layoutOnly(t *TiledStochastic) TiledStochastic {
	c := *t
	c.pool, c.scratch, c.partials, c.lanePartials = nil, nil, nil, nil
	return c
}

// TestDeriveTiledMatchesScratch: along random splice chains, every
// derived layout — each derived from the previous derived one — equals
// the layout TiledRows compiles from scratch under DegreeOrder(nil),
// field for field. The chains cover new papers citing old ones,
// old-to-old citations, new-to-new citations and new dangling papers,
// on one base under 64Ki rows and one over it, at the default tile
// height and at small ones.
func TestDeriveTiledMatchesScratch(t *testing.T) {
	shapes := []spliceShape{
		{papers: 3},
		{oldOld: 5},
		{papers: 4, dangling: 2, newNew: 3},
		{papers: 7, dangling: 1, newNew: 2, oldOld: 4},
		{papers: 1, dangling: 1},
		{},
		{papers: 40, dangling: 10, newNew: 30, oldOld: 60},
	}
	for _, tc := range []struct {
		name               string
		n, citing, refs    int
		tileRows, chainLen int
	}{
		{"one-window", 3000, 2600, 6, 16, 12},
		{"one-window/default-tiles", 5000, 4000, 8, DefaultTileRows, 8},
		{"two-window", windowSize + 3000, windowSize, 4, DefaultTileRows, 6},
		{"two-window/small-tiles", windowSize + 700, windowSize + 500, 3, 300, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n)))
			l := corpus(rng, tc.n, tc.citing, tc.refs)
			s := l.stochastic(t)
			prev := s.TiledRows(nil, s.DegreeOrder(nil), tc.tileRows)
			for step := 0; step < tc.chainLen; step++ {
				sh := shapes[step%len(shapes)]
				next := l.splice(rng, sh)
				ns := next.stochastic(t)
				got := ns.DeriveTiled(nil, s, prev)
				if got == nil {
					t.Fatalf("step %d (%+v): DeriveTiled declined a splice successor", step, sh)
				}
				want := ns.TiledRows(nil, ns.DegreeOrder(nil), tc.tileRows)
				if g, w := layoutOnly(got), layoutOnly(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d (%+v): derived layout differs from the compiled one\n%s", step, sh, layoutDiff(&g, &w))
				}
				l, s, prev = next, ns, got
			}
		})
	}
}

// layoutDiff names the first field where two layouts differ.
func layoutDiff(a, b *TiledStochastic) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(fieldValue(va.Field(i)), fieldValue(vb.Field(i))) {
			return "field " + va.Type().Field(i).Name
		}
	}
	return "no field differs"
}

// fieldValue reads an unexported field's value for comparison.
func fieldValue(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Int:
		return v.Int()
	case reflect.Slice:
		out := make([]any, v.Len())
		for i := range out {
			out[i] = fieldValue(v.Index(i))
		}
		return out
	case reflect.Struct:
		out := make([]any, v.NumField())
		for i := range out {
			out[i] = fieldValue(v.Field(i))
		}
		return out
	case reflect.Float64:
		return v.Float()
	case reflect.Uint16:
		return v.Uint()
	case reflect.Int32:
		return v.Int()
	}
	return v.Kind().String()
}

// TestDeriveTiledDeclines: DeriveTiled returns nil, so the caller
// compiles from scratch, when the window count changes (a chain
// crossing 65,536 rows), when a column drops an entry of the base's,
// grown or not, when the base is empty, and for a value-form matrix.
func TestDeriveTiledDeclines(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := corpus(rng, windowSize-2, 2000, 4)
	s := l.stochastic(t)
	prev := s.Tiled(nil, s.DegreeOrder(nil))

	crossed := l.splice(rng, spliceShape{papers: 5})
	if crossed.stochastic(t).DeriveTiled(nil, s, prev) != nil {
		t.Error("derived a layout across a window-count change")
	}

	// Column c drops its first reference and cites both new papers: it
	// grows by one, but is no superset of the base's column.
	dropped := l.splice(rng, spliceShape{papers: 2})
	c := 0
	for len(dropped[c]) == 0 {
		c++
	}
	dropped[c] = append(dropped[c][1:], int32(len(l)), int32(len(l)+1))
	if dropped.stochastic(t).DeriveTiled(nil, s, prev) != nil {
		t.Error("derived a layout from a base whose column lost an entry")
	}

	// Column c swaps its first reference for a new paper: the same
	// length, other entries.
	swapped := l.splice(rng, spliceShape{papers: 1})
	swapped[c] = append(swapped[c][1:], int32(len(l)))
	if swapped.stochastic(t).DeriveTiled(nil, s, prev) != nil {
		t.Error("derived a layout from a base whose column changed in place")
	}

	empty := refLists{}.stochastic(t)
	if (refLists{nil, {0}}).stochastic(t).DeriveTiled(nil, empty, empty.Tiled(nil, nil)) != nil {
		t.Error("derived a layout from an empty base")
	}

	m := mustMatrix(t, 2, 2, []Coord{{Row: 0, Col: 1, Val: 1}})
	vs := mustStochastic(t, m)
	if vs.DeriveTiled(nil, vs, vs.Tiled(nil, nil)) != nil {
		t.Error("derived a layout for a value-form matrix")
	}
}
