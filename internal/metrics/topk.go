package metrics

import "fmt"

// PrecisionAtK returns the fraction of the method's top-k items that are
// among the ground truth's top-k (by gains). With equal k on both sides
// this equals recall@k, OverlapAtK(gains, scores, k).
func PrecisionAtK(scores, gains []float64, k int) (float64, error) {
	return OverlapAtK(scores, gains, k)
}

// MRR returns the mean reciprocal rank of the ground truth's top-t items
// within the method's ranking: for each of the t highest-gain items, take
// 1/(its 1-based position in the method's ordering), and average. A
// method that places all true top items first scores close to 1.
func MRR(scores, gains []float64, t int) (float64, error) {
	if len(scores) != len(gains) {
		return 0, fmt.Errorf("metrics: mrr length mismatch %d vs %d", len(scores), len(gains))
	}
	if t <= 0 || len(scores) == 0 {
		return 0, fmt.Errorf("metrics: mrr needs t > 0 and non-empty input")
	}
	if t > len(scores) {
		t = len(scores)
	}
	pos := make([]int, len(scores))
	for p, idx := range Ordering(scores) {
		pos[idx] = p
	}
	sum := 0.0
	for _, idx := range TopK(gains, t) {
		sum += 1 / float64(pos[idx]+1)
	}
	return sum / float64(t), nil
}
