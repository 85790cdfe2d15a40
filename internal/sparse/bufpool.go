package sparse

import "sync"

// VecPool leases float64 vectors of one fixed length. It is the tiled
// kernel's scratch-buffer mechanism: the per-step premultiplied iterate
// cycles through one of these instead of being allocated per iteration,
// so a single-partition power-iteration step performs zero allocations
// (TestTiledStepAllocs pins this). A small mutex-guarded freelist is
// used instead of sync.Pool deliberately: Put into a sync.Pool boxes the
// slice header (one heap allocation per cycle), which would break that
// guarantee. Get and Put are safe for concurrent use.
type VecPool struct {
	n    int
	mu   sync.Mutex
	free [][]float64
}

// vecPoolCap bounds the freelist; returns beyond it are dropped to the
// GC. Steady state needs as many vectors as there are concurrent
// leases, which for every caller here is a handful.
const vecPoolCap = 8

// NewVecPool returns a pool of vectors of length n.
func NewVecPool(n int) *VecPool {
	return &VecPool{n: n}
}

// Get leases a vector of the pool's length. Contents are unspecified.
func (p *VecPool) Get() []float64 {
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		v := p.free[k-1]
		p.free = p.free[:k-1]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	return make([]float64, p.n)
}

// Put returns a vector obtained from Get. Vectors of the wrong length
// are dropped rather than poisoning the pool.
func (p *VecPool) Put(v []float64) {
	if len(v) != p.n {
		return
	}
	p.mu.Lock()
	if len(p.free) < vecPoolCap {
		p.free = append(p.free, v)
	}
	p.mu.Unlock()
}
