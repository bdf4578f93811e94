// Package par is the repository's shared bounded work pool: a small,
// dependency-light fan-out primitive used by the per-output loops of
// internal/{census,reliability,exact,core,synth,experiments}.
//
// Contract (relied on by the metamorphic "parallel ≡ sequential" law and
// documented in DESIGN §9):
//
//   - Bounded. At most Workers(limit, n) = min(limit, GOMAXPROCS, n)
//     goroutines run tasks; limit <= 0 means GOMAXPROCS. Workers(1, n)
//     runs every task inline on the calling goroutine — the sequential
//     path and the parallel path are the same code.
//
//   - Deterministic. Tasks communicate only through caller-owned,
//     index-addressed slots, so results are positionally identical at
//     every parallelism level. The returned error is the error of the
//     LOWEST-indexed failing task: indices are dispatched in ascending
//     order and every started task runs to completion, so if task i
//     fails, every task j < i has also run and recorded its outcome —
//     the same error a sequential loop would have returned.
//
//   - Context-aware. Dispatch stops as soon as ctx is done; Do returns
//     ctx.Err() when cancellation (and no lower-indexed task error)
//     stopped the run. Budget cancellation from internal/pipeline
//     propagates into the pool through this path.
//
//   - Panic-to-error. A panicking task is recovered and reported as a
//     *PanicError carrying the panic value and stack, never crashing
//     sibling goroutines. (internal/pipeline re-classifies these at the
//     stage boundary exactly like direct panics.)
//
// Observability: every task counts toward relsyn_par_tasks_total, and
// the delay between submission (the Do call) and the task starting is
// observed in relsyn_par_queue_wait_seconds.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"relsyn/internal/obs"
)

// Metric names exported by the pool.
const (
	MetricTasks     = "relsyn_par_tasks_total"
	MetricQueueWait = "relsyn_par_queue_wait_seconds"
)

// init seeds the pool's series on the default registry so they are
// present (at zero) before the first parallel kernel runs.
func init() {
	obs.Default.SetHelp(MetricTasks, "Tasks executed by the shared bounded work pool.")
	obs.Default.SetHelp(MetricQueueWait, "Delay between task submission and task start in the work pool.")
	obs.Default.Counter(MetricTasks)
	obs.Default.Histogram(MetricQueueWait)
}

// PanicError is a recovered task panic, converted to an error so that a
// serving process can reject the request instead of crashing.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task panicked: %v", e.Value)
}

// Workers returns the number of goroutines Do uses for n tasks under the
// given limit: min(limit, GOMAXPROCS, n), at least 1. limit <= 0 selects
// GOMAXPROCS (the "use the whole machine" default).
func Workers(limit, n int) int {
	w := limit
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if procs := runtime.GOMAXPROCS(0); w > procs {
		w = procs
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do runs fn(i) for every i in [0, n) on up to Workers(limit, n)
// goroutines and returns the lowest-indexed task error, or ctx.Err() if
// cancellation stopped dispatch first, or nil. See the package comment
// for the determinism and panic contract. fn must be safe for concurrent
// invocation with distinct indices whenever Workers(limit, n) > 1.
func Do(ctx context.Context, limit, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Workers(limit, n)
	submitted := time.Now()
	tasks := obs.Default.Counter(MetricTasks)
	wait := obs.Default.Histogram(MetricQueueWait)

	run := func(i int) (err error) {
		wait.Observe(time.Since(submitted).Seconds())
		tasks.Inc()
		defer func() {
			if p := recover(); p != nil {
				stack := make([]byte, 16<<10)
				stack = stack[:runtime.Stack(stack, false)]
				err = &PanicError{Value: p, Stack: stack}
			}
		}()
		return fn(i)
	}

	if workers == 1 {
		// Inline sequential path: same semantics (ctx polls, panic
		// recovery, first-error-by-index), zero goroutines.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64 // dispatch cursor
		stop atomic.Bool  // set on first failure or cancellation
		wg   sync.WaitGroup
	)
	errs := make([]error, n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					stop.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(i); err != nil {
					errs[i] = err
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if stop.Load() {
		// No task error recorded, so cancellation stopped dispatch.
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
