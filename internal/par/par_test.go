package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"relsyn/internal/obs"
)

// withProcs raises GOMAXPROCS for the duration of a test so the pool's
// concurrent path is exercised even on single-core machines.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestWorkersBounds(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		limit, n, want int
	}{
		{0, 100, procs},          // limit 0 = GOMAXPROCS
		{-3, 100, procs},         // negative = GOMAXPROCS
		{1, 100, 1},              // explicit sequential
		{1000, 2, min(2, procs)}, // never more workers than tasks/cores
		{1000, 100, procs},       // never more workers than cores
		{0, 0, 1},                // degenerate: at least one
		{2, 100, min(2, procs)},
	}
	for _, c := range cases {
		if got := Workers(c.limit, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.limit, c.n, got, c.want)
		}
	}
}

func TestDoRunsEveryTaskOnce(t *testing.T) {
	withProcs(t, 8)
	for _, limit := range []int{1, 2, 8, 0} {
		const n = 137
		counts := make([]atomic.Int32, n)
		err := Do(context.Background(), limit, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("limit %d: task %d ran %d times", limit, i, got)
			}
		}
	}
}

func TestDoReturnsLowestIndexedError(t *testing.T) {
	withProcs(t, 8)
	// Tasks 10, 40, and 90 fail; every parallelism level must report 10,
	// exactly as a sequential loop would.
	fail := map[int]bool{10: true, 40: true, 90: true}
	for _, limit := range []int{1, 2, 8, 0} {
		err := Do(context.Background(), limit, 128, func(i int) error {
			if fail[i] {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 10 failed" {
			t.Fatalf("limit %d: got %v, want task 10's error", limit, err)
		}
	}
}

func TestDoPanicToError(t *testing.T) {
	withProcs(t, 8)
	for _, limit := range []int{1, 4} {
		err := Do(context.Background(), limit, 16, func(i int) error {
			if i == 3 {
				panic("kernel invariant violated")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("limit %d: got %v (%T), want *PanicError", limit, err, err)
		}
		if pe.Value != "kernel invariant violated" {
			t.Fatalf("limit %d: panic value %v", limit, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("limit %d: no stack captured", limit)
		}
	}
}

func TestDoCancellation(t *testing.T) {
	withProcs(t, 8)
	for _, limit := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := Do(ctx, limit, 1000, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("limit %d: got %v, want context.Canceled", limit, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("limit %d: all %d tasks ran despite cancellation", limit, n)
		}
	}
}

func TestDoPreCancelledContext(t *testing.T) {
	withProcs(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Do(ctx, 4, 10, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Workers may each start at most zero tasks after observing ctx.
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d tasks ran under a pre-cancelled context", n)
	}
}

func TestDoZeroTasks(t *testing.T) {
	if err := Do(context.Background(), 4, 0, func(int) error {
		t.Fatal("task ran")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsRecorded(t *testing.T) {
	withProcs(t, 8)
	before := obs.Default.Counter(MetricTasks).Value()
	if err := Do(context.Background(), 4, 25, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.Counter(MetricTasks).Value() - before; got != 25 {
		t.Fatalf("relsyn_par_tasks_total advanced by %d, want 25", got)
	}
}
