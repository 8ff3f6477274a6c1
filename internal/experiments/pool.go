// Parallel experiment harness. Every simulation cell of the evaluation grid
// — one (app, scenario, system, seed) deployment — builds its own sim.Engine
// and manager, so cells are embarrassingly parallel. forEach fans them over
// a bounded worker pool (package fanout) and writes each result into its
// index slot, so the merged output is byte-identical to a sequential run
// (Parallelism: 1).
//
// Shared state is confined to two caches, both singleflight-deduplicated:
// profileCache (exploration output, returned as deep copies) and protoCache
// (trained Sinan/Firm prototypes, handed out as clones). Progress logging is
// serialized through a package-level mutex.
package experiments

import (
	"runtime"
	"sync"

	"ursa/internal/fanout"
)

// workers resolves the effective worker count: Options.Parallelism when
// positive, GOMAXPROCS otherwise.
func (o *Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0) … fn(n-1) on a pool of at most workers() goroutines;
// see fanout.ForEach for the merge-order and panic contract.
func (o *Options) forEach(n int, fn func(i int)) { fanout.ForEach(o.workers(), n, fn) }

// forEachErr is forEach for fallible tasks; the lowest-indexed error wins.
func (o *Options) forEachErr(n int, fn func(i int) error) error {
	return fanout.ForEachErr(o.workers(), n, fn)
}

// ForEach exposes the bounded worker pool to callers that orchestrate
// several experiments at once (e.g. cmd/ursa-bench -exp all): fn(i) runs for
// every i in [0, n) on at most opts.Parallelism workers. Callers must write
// results into index-addressed slots to keep output deterministic.
func ForEach(opts Options, n int, fn func(i int)) {
	opts.defaults()
	opts.forEach(n, fn)
}

// protoCache memoises expensive trained-manager prototypes (Sinan's CNN+GBT,
// Firm's pretrained agents) per (system, app, seed, scale). Prototypes are
// never attached to an app; callers clone them per deployment cell. The
// per-entry sync.Once gives singleflight semantics: concurrent cells asking
// for the same prototype block on one training run instead of duplicating it.
var (
	protoMu    sync.Mutex
	protoCache = map[string]*protoEntry{}
)

type protoEntry struct {
	once sync.Once
	val  any
}

// protoFor returns the cached value for key, building it at most once.
func protoFor(key string, build func() any) any {
	protoMu.Lock()
	e := protoCache[key]
	if e == nil {
		e = &protoEntry{}
		protoCache[key] = e
	}
	protoMu.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val
}

// resetCaches clears the exploration and prototype caches (test hook).
func resetCaches() {
	profileMu.Lock()
	profileCache = map[string]*profileCacheEntry{}
	profileMu.Unlock()
	protoMu.Lock()
	protoCache = map[string]*protoEntry{}
	protoMu.Unlock()
}
