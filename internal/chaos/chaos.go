// Package chaos is the deterministic fault-injection harness for relsynd:
// it fires faults at the pipeline's stage boundaries (stage.go) and at
// the serving seams around the pipeline:
//
//   - store: torn writes, short writes, fsync errors, and open/rename
//     failures injected through the internal/store FS seam — proving
//     that WAL recovery truncates torn tails and that the circuit
//     breaker degrades to in-memory serving instead of failing the
//     request path;
//   - queue: admission rejections, silent drops, and delivery latency
//     through jobqueue.FaultHook — proving that every accepted job still
//     reaches a terminal state via the deadline machinery;
//   - worker: backend panics, stalls, and errors through a Backend
//     middleware — proving the worker pool converts panics into failed
//     jobs rather than crashing the process.
//
// Everything is counter-deterministic: a Trigger fires on exact call
// ordinals and a Harness on an exact visit of its point, never on
// randomness or time, so chaos tests are reproducible and
// race-detector friendly.
package chaos

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"relsyn/internal/jobqueue"
	"relsyn/internal/pipeline"
	"relsyn/internal/store"
	"relsyn/internal/tt"
)

// Trigger fires deterministically on call ordinals: calls 1..On-1 pass,
// then Count consecutive calls fire (Count 0 means 1; Count < 0 means
// every call from On onward). The zero value never fires. Safe for
// concurrent use.
type Trigger struct {
	// On is the 1-based call ordinal of the first fire (0 = never).
	On int
	// Count is the number of consecutive fires (0 → 1, negative → all).
	Count int

	mu    sync.Mutex
	calls int
	fired int
}

// Fire records one call and reports whether the fault fires on it.
func (t *Trigger) Fire() bool {
	if t == nil || t.On <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	if t.calls < t.On {
		return false
	}
	count := t.Count
	if count == 0 {
		count = 1
	}
	if count > 0 && t.fired >= count {
		return false
	}
	t.fired++
	return true
}

// Fired returns how many times the trigger has fired.
func (t *Trigger) Fired() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fired
}

// injectedError is the concrete type behind every error the harness
// fabricates, so tests can assert provenance via IsInjected.
type injectedError struct{ op string }

func (e *injectedError) Error() string { return "chaos: injected " + e.op + " fault" }

// Injected fabricates a typed fault error for op.
func Injected(op string) error { return &injectedError{op: op} }

// IsInjected reports whether err (anywhere in its chain) was fabricated
// by this package.
func IsInjected(err error) bool {
	for err != nil {
		if _, ok := err.(*injectedError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// ---------------------------------------------------------------------
// Store faults: an FS decorator over internal/store's filesystem seam.
// ---------------------------------------------------------------------

// FSFaults scripts filesystem faults. Each trigger counts its own
// operation class independently.
type FSFaults struct {
	// WriteErr fails a WAL/snapshot write outright (nothing written).
	WriteErr *Trigger
	// TornWrite writes only the first half of the buffer, then fails —
	// the classic torn-frame crash artifact WAL recovery must absorb.
	TornWrite *Trigger
	// SyncErr fails fsync (data written but durability unknown).
	SyncErr *Trigger
	// OpenErr fails OpenAppend/Create/Open.
	OpenErr *Trigger
	// RenameErr fails the snapshot publish rename.
	RenameErr *Trigger
}

// FS wraps inner with the scripted faults. The returned FS is safe for
// concurrent use to the extent inner is. A nil faults script returns
// inner unchanged.
func FS(inner store.FS, f *FSFaults) store.FS {
	if f == nil {
		return inner
	}
	return &faultFS{inner: inner, f: f}
}

type faultFS struct {
	inner store.FS
	f     *FSFaults
}

func (c *faultFS) MkdirAll(dir string) error { return c.inner.MkdirAll(dir) }

func (c *faultFS) OpenAppend(name string) (store.File, error) {
	if c.f.OpenErr.Fire() {
		return nil, Injected("open")
	}
	fl, err := c.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: fl, f: c.f}, nil
}

func (c *faultFS) Create(name string) (store.File, error) {
	if c.f.OpenErr.Fire() {
		return nil, Injected("create")
	}
	fl, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: fl, f: c.f}, nil
}

func (c *faultFS) Open(name string) (io.ReadCloser, error) {
	if c.f.OpenErr.Fire() {
		return nil, Injected("open")
	}
	return c.inner.Open(name)
}

func (c *faultFS) Rename(o, n string) error {
	if c.f.RenameErr.Fire() {
		return Injected("rename")
	}
	return c.inner.Rename(o, n)
}

func (c *faultFS) Remove(name string) error               { return c.inner.Remove(name) }
func (c *faultFS) Truncate(name string, size int64) error { return c.inner.Truncate(name, size) }

type faultFile struct {
	inner store.File
	f     *FSFaults
}

func (c *faultFile) Write(p []byte) (int, error) {
	if c.f.WriteErr.Fire() {
		return 0, Injected("write")
	}
	if c.f.TornWrite.Fire() {
		// Write a strict prefix — the on-disk state a power cut leaves
		// behind mid-append — then report failure.
		n, err := c.inner.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		_ = c.inner.Sync() // make the torn prefix the durable state
		return n, Injected("torn write")
	}
	return c.inner.Write(p)
}

func (c *faultFile) Sync() error {
	if c.f.SyncErr.Fire() {
		return Injected("sync")
	}
	return c.inner.Sync()
}

func (c *faultFile) Close() error { return c.inner.Close() }

// ---------------------------------------------------------------------
// Queue faults: a jobqueue.FaultHook.
// ---------------------------------------------------------------------

// QueueFaults scripts job-queue faults. It implements
// jobqueue.FaultHook; install with Queue.SetFaultHook.
type QueueFaults struct {
	// Reject vetoes an Enqueue with jobqueue.ErrFull (backpressure).
	Reject *Trigger
	// Drop discards a dequeued item before delivery; its OnExpire hook
	// still fires so waiters terminate.
	Drop *Trigger
	// LatencyOn delays a delivery by Latency.
	LatencyOn *Trigger
	Latency   time.Duration
}

var _ jobqueue.FaultHook = (*QueueFaults)(nil)

// Admit implements jobqueue.FaultHook.
func (q *QueueFaults) Admit(*jobqueue.Item) error {
	if q.Reject.Fire() {
		return fmt.Errorf("chaos: injected admission rejection: %w", jobqueue.ErrFull)
	}
	return nil
}

// Deliver implements jobqueue.FaultHook.
func (q *QueueFaults) Deliver(*jobqueue.Item) bool {
	if q.LatencyOn.Fire() && q.Latency > 0 {
		time.Sleep(q.Latency)
	}
	return !q.Drop.Fire()
}

// ---------------------------------------------------------------------
// Worker faults: a Backend middleware.
// ---------------------------------------------------------------------

// backendFunc matches internal/server.Backend without importing the
// server package (which would preclude use from server-internal tests).
type backendFunc = func(ctx context.Context, f *tt.Function, opt pipeline.JobOptions) (*pipeline.JobResult, error)

// WorkerFaults scripts worker-execution faults.
type WorkerFaults struct {
	// Panic panics inside the backend — the worker pool must convert it
	// into a failed job, never a process crash.
	Panic *Trigger
	// Fail returns an injected error.
	Fail *Trigger
	// StallOn blocks the backend for Stall (or until ctx is done),
	// simulating a wedged computation that must be cut off by the job
	// deadline.
	StallOn *Trigger
	Stall   time.Duration
}

// Backend wraps inner with the scripted worker faults.
func Backend(inner backendFunc, w *WorkerFaults) backendFunc {
	return func(ctx context.Context, f *tt.Function, opt pipeline.JobOptions) (*pipeline.JobResult, error) {
		if w.Panic.Fire() {
			panic("chaos: injected worker panic")
		}
		if w.Fail.Fire() {
			return nil, Injected("worker")
		}
		if w.StallOn.Fire() && w.Stall > 0 {
			select {
			case <-time.After(w.Stall):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return inner(ctx, f, opt)
	}
}
