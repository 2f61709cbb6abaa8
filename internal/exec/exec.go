// Package exec is the sharded audit execution engine: it row-partitions
// a dataset into fixed-size chunks, evaluates mergeable kernels over the
// chunks on a bounded goroutine pool, and folds the per-chunk states
// into a final result in ascending chunk order.
//
// The design goal is parallelism without nondeterminism. Every audit in
// this repo — batch audits through core.Audit, request/response audits
// through serve.Engine, and window drift scoring through
// internal/monitor — routes its row-scans through this planner, and all
// of them must produce the same bits no matter how many shards run. Two
// properties guarantee that:
//
//   - The chunk layout depends only on the row count and the chunk
//     size, never on the shard count. Shards are workers pulling chunks
//     from a shared counter; they decide who computes a chunk, not what
//     the chunk is.
//   - Per-chunk states are merged strictly left-to-right in chunk
//     order after all workers finish, so the floating-point reduction
//     tree is fixed. Completion order cannot leak into the result.
//
// Consequently Run(n, Options{Shards: 1}, k) and Run(n, Options{Shards:
// 64}, k) return bit-for-bit identical states. The shard count is a
// fixed rule, not a service setting: serve, pipeline and monitor scans
// run at runtime.GOMAXPROCS(0) shards, so the GOMAXPROCS environment
// variable bounds them. An explicit Options.Shards reaches Run only
// from this package's shard-invariance property tests and from the
// shards argument of fairness.EvaluateSeriesSharded (fed by
// core.Config.Shards, which nothing in the service sets); the serve and
// monitor invariance tests sweep GOMAXPROCS instead.
//
// Kernels close over the column data they scan; the package ships the
// accumulators the FACT audit and the drift scorers need (Moments,
// Outcomes, Sorted, Levels) and callers can add their own by
// implementing State.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultChunkSize is the number of rows per chunk when Options leaves
// it zero. The chunk layout is part of the deterministic plan: changing
// the chunk size may change low-order float bits (a different reduction
// tree), changing the shard count never does.
const DefaultChunkSize = 8192

// State is one kernel's mergeable accumulator. Update absorbs the rows
// [lo, hi) of the kernel's data; Merge absorbs another state of the
// same concrete type. The planner calls Update on states of distinct
// chunks concurrently, but never calls Update or Merge on the same
// state from two goroutines.
type State interface {
	// Update absorbs rows [lo, hi) into the state.
	Update(lo, hi int)
	// Merge absorbs another state of the same kernel. The planner
	// merges in ascending chunk order, so implementations may be
	// order-sensitive in float arithmetic yet still deterministic.
	Merge(other State)
}

// Kernel names a computation and constructs fresh per-chunk states.
// New must return an independent state on every call: one per chunk,
// plus one the planner folds the chunk states into.
type Kernel struct {
	// Name labels the kernel in errors and diagnostics.
	Name string
	// New constructs an empty state. Required.
	New func() State
}

// Options parameterizes a plan. The zero value selects the defaults.
type Options struct {
	// Shards is the number of worker goroutines (default
	// runtime.GOMAXPROCS(0)). Shard count never changes results, only
	// wall-clock time.
	Shards int
	// ChunkSize is the number of rows per chunk (default
	// DefaultChunkSize). Part of the deterministic plan: results for
	// the same data and chunk size are identical across shard counts.
	ChunkSize int
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	return o
}

// Run partitions the row range [0, n) into fixed-size chunks, runs
// every kernel over every chunk on a pool of opt.Shards goroutines, and
// merges the per-chunk states in ascending chunk order. It returns one
// final state per kernel, in kernel order. n == 0 returns the kernels'
// empty states.
func Run(n int, opt Options, kernels ...Kernel) ([]State, error) {
	if n < 0 {
		return nil, fmt.Errorf("exec: Run needs n >= 0, got %d", n)
	}
	if len(kernels) == 0 {
		return nil, fmt.Errorf("exec: Run needs at least one kernel")
	}
	for i, k := range kernels {
		if k.New == nil {
			return nil, fmt.Errorf("exec: kernel %d (%q) has no state constructor", i, k.Name)
		}
	}
	opt = opt.withDefaults()

	// Workers pull chunk indices from a shared counter, so a slow chunk
	// never stalls the others; the partials land in a slice indexed by
	// chunk so the merge below is independent of completion order.
	chunks := (n + opt.ChunkSize - 1) / opt.ChunkSize
	partials := make([][]State, chunks)
	workers := opt.Shards
	if workers > chunks {
		workers = chunks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * opt.ChunkSize
				hi := lo + opt.ChunkSize
				if hi > n {
					hi = n
				}
				states := make([]State, len(kernels))
				for i, k := range kernels {
					st := k.New()
					st.Update(lo, hi)
					states[i] = st
				}
				partials[c] = states
			}
		}()
	}
	wg.Wait()

	final := make([]State, len(kernels))
	for i, k := range kernels {
		final[i] = k.New()
	}
	for _, states := range partials {
		for i := range kernels {
			final[i].Merge(states[i])
		}
	}
	return final, nil
}

// RunOne is Run for a single kernel, returning its final state.
func RunOne(n int, opt Options, k Kernel) (State, error) {
	states, err := Run(n, opt, k)
	if err != nil {
		return nil, err
	}
	return states[0], nil
}
