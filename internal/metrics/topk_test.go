package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestPrecisionRecallAtK(t *testing.T) {
	scores := []float64{9, 8, 1, 2} // method top-2: {0,1}
	gains := []float64{5, 0, 6, 1}  // truth top-2: {2,0}
	p, err := PrecisionAtK(scores, gains, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-12 {
		t.Errorf("precision@2 = %v, want 0.5", p)
	}
	r, err := OverlapAtK(gains, scores, 2) // recall@2
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.5) > 1e-12 {
		t.Errorf("recall@2 = %v, want 0.5", r)
	}
}

func TestPrecisionEqualsRecallSameK(t *testing.T) {
	scores := []float64{1, 5, 3, 2, 4}
	gains := []float64{2, 3, 5, 1, 4}
	for k := 1; k <= 5; k++ {
		p, err := PrecisionAtK(scores, gains, k)
		if err != nil {
			t.Fatal(err)
		}
		r, err := OverlapAtK(gains, scores, k) // recall@k
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-r) > 1e-12 {
			t.Errorf("k=%d: precision %v != recall %v (set overlap is symmetric)", k, p, r)
		}
	}
}

func TestMRRPerfect(t *testing.T) {
	gains := []float64{3, 2, 1}
	// Method ranks exactly by gains → truth item i sits at position i.
	v, err := MRR(gains, gains, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0 + 0.5 + 1.0/3) / 3
	if math.Abs(v-want) > 1e-12 {
		t.Errorf("MRR = %v, want %v", v, want)
	}
}

func TestMRRWorst(t *testing.T) {
	// Truth's single top item is ranked dead last by the method.
	scores := []float64{3, 2, 1}
	gains := []float64{0, 0, 9}
	v, err := MRR(scores, gains, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1.0/3) > 1e-12 {
		t.Errorf("MRR = %v, want 1/3", v)
	}
}

func TestMRRErrors(t *testing.T) {
	if _, err := MRR([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := MRR([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := MRR(nil, nil, 3); err == nil {
		t.Error("empty input accepted")
	}
}

func TestMRRClampsT(t *testing.T) {
	v, err := MRR([]float64{2, 1}, []float64{2, 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0 + 0.5) / 2
	if math.Abs(v-want) > 1e-12 {
		t.Errorf("MRR = %v, want %v", v, want)
	}
}

func TestBootstrapCIContainsPointEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	scores := make([]float64, n)
	gains := make([]float64, n)
	for i := range scores {
		scores[i] = rng.NormFloat64()
		gains[i] = scores[i] + 0.5*rng.NormFloat64() // correlated truth
	}
	point, err := Spearman(scores, gains)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := BootstrapCI(Spearman, scores, gains, 300, 0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Fatalf("degenerate interval [%v, %v]", lo, hi)
	}
	if point < lo || point > hi {
		t.Errorf("point estimate %v outside CI [%v, %v]", point, lo, hi)
	}
	if hi-lo > 0.5 {
		t.Errorf("interval suspiciously wide: [%v, %v]", lo, hi)
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	scores := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	gains := []float64{2, 1, 4, 3, 6, 5, 8, 7}
	lo1, hi1, err := BootstrapCI(Spearman, scores, gains, 100, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	lo2, hi2, err := BootstrapCI(Spearman, scores, gains, 100, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("same seed produced different intervals")
	}
}

func TestBootstrapCIValidation(t *testing.T) {
	good := []float64{1, 2, 3}
	cases := []struct {
		scores, gains []float64
		iters         int
		level         float64
	}{
		{good, []float64{1, 2}, 100, 0.9},
		{[]float64{1}, []float64{1}, 100, 0.9},
		{good, good, 5, 0.9},
		{good, good, 100, 0},
		{good, good, 100, 1},
	}
	for i, c := range cases {
		if _, _, err := BootstrapCI(Spearman, c.scores, c.gains, c.iters, c.level, 1); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
