package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// parallelFor runs fn(i) for i in [0, n) on up to GOMAXPROCS workers,
// each taking the next index from one shared counter, so a long run
// never holds shorter ones queued behind it while another worker idles.
// Each experiment run owns its network and RNGs, so runs are
// independent and results stay deterministic; only wall-clock order
// changes. fn must write results into pre-sized slots (no appends).
//
// A panic inside fn is captured and re-raised on the caller's
// goroutine after every worker has finished, so a crashing experiment
// surfaces as one panic with the offending index and original stack
// instead of killing the process from an anonymous goroutine. When
// several runs panic concurrently, the lowest index wins. Workers that
// observe a recorded panic take no further indices.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		panicIdx   = -1
		panicVal   any
		panicStack []byte
	)
	record := func(i int, v any, stack []byte) {
		mu.Lock()
		if panicIdx == -1 || i < panicIdx {
			panicIdx, panicVal, panicStack = i, v, stack
		}
		mu.Unlock()
	}
	poisoned := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return panicIdx != -1
	}
	runOne := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				record(i, v, debug.Stack())
			}
		}()
		fn(i)
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || poisoned() {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	if panicIdx != -1 {
		panic(fmt.Sprintf("experiments: run %d panicked: %v\n%s", panicIdx, panicVal, panicStack))
	}
}
