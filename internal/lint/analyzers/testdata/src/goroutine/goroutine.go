// Fixture for the goroutine analyzer: concurrency outside runner, and
// coroutines outside sim.
package goroutine

import (
	"iter"
	"sync"
)

func spawn(work func()) {
	go work() // want `goroutine spawned outside the sanctioned concurrency packages`
}

func fanOut(n int) {
	var wg sync.WaitGroup // want `sync\.WaitGroup outside the sanctioned concurrency packages`
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { // want `goroutine spawned outside the sanctioned concurrency packages`
			defer wg.Done()
		}()
	}
	wg.Wait()
}

func makeQueue() chan int { // want `channel type outside the sanctioned concurrency packages`
	return nil
}

// A mutex is mutual exclusion, not concurrency: no diagnostic.
type guarded struct {
	mu sync.Mutex
	n  int
}

func (g *guarded) bump() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

func suppressed(work func()) {
	//lint:allow goroutine fixture demonstrates a justified suppression
	go work()
}

// A coroutine built outside the kernel escapes Kill, Switches and the
// deadlock watchdog.
func first(seq iter.Seq[int]) int {
	next, stop := iter.Pull(seq) // want `iter\.Pull outside internal/sim`
	defer stop()
	v, _ := next()
	return v
}

func firstPair(seq iter.Seq2[int, int]) {
	_, stop := iter.Pull2(seq) // want `iter\.Pull2 outside internal/sim`
	stop()
}

// Ranging over a sequence makes no coroutine: no diagnostic.
func sum(seq iter.Seq[int]) (n int) {
	for v := range seq {
		n += v
	}
	return n
}

func suppressedPull(seq iter.Seq[int]) {
	//lint:allow goroutine fixture demonstrates a justified suppression
	_, stop := iter.Pull(seq)
	stop()
}
