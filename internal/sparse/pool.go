package sparse

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// liveWorkers counts running pool worker goroutines process-wide. It is
// the hook behind the goroutine-leak regression tests: closing a pool —
// deterministically or through the finalizer — must bring this count
// back down.
var liveWorkers atomic.Int64

// LiveWorkers reports how many pool worker goroutines are currently
// running in this process. Diagnostic hook for tests.
func LiveWorkers() int64 { return liveWorkers.Load() }

// Pool is a persistent set of worker goroutines that execute the
// tile-claiming tasks of the tiled power-method kernel. A compiled
// ranking operator creates one pool and reuses it for every iteration of
// every rank, so the per-iteration cost is a handful of channel
// operations instead of spawning and tearing down goroutines on each
// matrix–vector product.
type Pool struct {
	tasks chan poolTask
	stop  chan struct{}
	size  int
	once  sync.Once
}

type poolTask struct {
	fn func(i int)
	i  int
	wg *sync.WaitGroup
}

// NewPool starts a pool of size worker goroutines (GOMAXPROCS when size
// ≤ 0). The workers hold references only to the pool's channels, so an
// unreachable pool is shut down by a finalizer even if Close was never
// called; call Close for deterministic cleanup.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		tasks: make(chan poolTask),
		stop:  make(chan struct{}),
		size:  size,
	}
	for w := 0; w < size; w++ {
		go poolWorker(p.tasks, p.stop)
	}
	runtime.SetFinalizer(p, (*Pool).Close)
	return p
}

func poolWorker(tasks <-chan poolTask, stop <-chan struct{}) {
	liveWorkers.Add(1)
	defer liveWorkers.Add(-1)
	for {
		select {
		case t := <-tasks:
			t.fn(t.i)
			t.wg.Done()
		case <-stop:
			return
		}
	}
}

// Size returns the number of worker goroutines.
func (p *Pool) Size() int { return p.size }

// Run executes fn(0), …, fn(n−1) on the pool and blocks until all calls
// returned. n may exceed the pool size; excess tasks queue and are drained
// as workers free up. Concurrent Run calls are safe — their tasks
// interleave on the same workers — but must not run after Close.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		select {
		case p.tasks <- poolTask{fn: fn, i: i, wg: &wg}:
		case <-p.stop:
			panic("sparse: Pool.Run after Close")
		}
	}
	wg.Wait()
	runtime.KeepAlive(p) // the finalizer must not fire mid-Run
}

// Close stops the workers. It is idempotent and must not race with Run.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.stop) })
}
