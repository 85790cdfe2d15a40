package sparse

import (
	"sync"
	"testing"
)

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	if p.Size() != 3 {
		t.Fatalf("Size = %d, want 3", p.Size())
	}
	hits := make([]int32, 100)
	p.Run(len(hits), func(i int) { hits[i]++ }) // n ≫ pool size: tasks queue
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("task %d ran %d times", i, h)
		}
	}
	p.Run(0, func(i int) { t.Error("n=0 must not run anything") })
}

func TestPoolConcurrentRun(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := make(map[int]int)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p.Run(25, func(i int) {
				mu.Lock()
				counts[g*1000+i]++
				mu.Unlock()
			})
		}(g)
	}
	wg.Wait()
	if len(counts) != 8*25 {
		t.Fatalf("got %d distinct tasks, want %d", len(counts), 8*25)
	}
	for k, c := range counts {
		if c != 1 {
			t.Fatalf("task %d ran %d times", k, c)
		}
	}
}

func TestPoolCloseIdempotentAndRunPanics(t *testing.T) {
	p := NewPool(1)
	p.Close()
	p.Close() // must not panic
	defer func() {
		if recover() == nil {
			t.Error("Run after Close did not panic")
		}
	}()
	p.Run(1, func(int) {})
}
