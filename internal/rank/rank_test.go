package rank

import (
	"errors"
	"testing"

	"attrank/internal/graph"
)

func TestFuncAdapter(t *testing.T) {
	called := false
	m := Func{ID: "demo", Fn: func(net *graph.Network, now int) ([]float64, error) {
		called = true
		if now != 1998 {
			t.Errorf("now = %d", now)
		}
		return make([]float64, net.N()), nil
	}}
	if m.Name() != "demo" {
		t.Errorf("Name = %q", m.Name())
	}
	b := graph.NewBuilder()
	if _, err := b.AddPaper("a", 1990, nil, ""); err != nil {
		t.Fatal(err)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	scores, err := m.Scores(net, 1998)
	if err != nil {
		t.Fatal(err)
	}
	if !called || len(scores) != 1 {
		t.Error("adapter did not delegate")
	}
}

func TestFuncAdapterPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	m := Func{ID: "bad", Fn: func(*graph.Network, int) ([]float64, error) {
		return nil, sentinel
	}}
	if _, err := m.Scores(nil, 0); !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

// Compile-time check: Func satisfies Method.
var _ Method = Func{}
