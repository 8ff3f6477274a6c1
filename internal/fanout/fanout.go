// Package fanout runs independent, index-addressed tasks on a bounded worker
// pool. Each task writes only its own result slot, so the merged output is
// byte-identical to a sequential run at any worker count.
package fanout

import "sync"

// ForEach runs fn(0) … fn(n-1) on a pool of at most workers goroutines
// (sequentially when workers ≤ 1). Callers pre-size their result slice and
// have fn(i) write slot i only, which makes the merge order canonical
// regardless of scheduling. A panic in any task is re-raised in the caller
// once all workers have drained, matching the sequential failure mode.
func ForEach(workers, n int, fn func(i int)) {
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
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	jobs := make(chan int)
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicked = r })
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// ForEachErr is ForEach for fallible tasks: every task runs, and the error
// of the lowest-indexed failing task is returned, so the reported failure
// does not depend on scheduling.
func ForEachErr(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	ForEach(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
