package verify

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/corpus"
)

// slowOpts makes the edge-detector check exhaustively enumerate 2^24 input
// sequences — several seconds of work, far beyond any test deadline — so a
// prompt return can only mean cancellation took effect inside the
// enumeration loop.
func slowOpts() Options {
	return Options{Depth: 24, MaxExhaustiveBits: 24, RandomRuns: -1}
}

// TestCancelledCheckIsRecomputable exercises the singleflight teardown
// under the race detector: cancelling the only waiter of an in-flight
// check must remove the entry (no poisoned cache slot handing the old
// ctx error to the next caller) and release the worker slot (no leaked
// pool capacity). Run with -race.
func TestCancelledCheckIsRecomputable(t *testing.T) {
	svc := New(1) // pool of one: a leaked slot would deadlock the test
	src := corpus.EdgeDetect().Source()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := svc.Check(ctx, src, nil, slowOpts())
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the compute enter the enumeration
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled check returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled check did not return")
	}

	// The entry must be gone: a second request for the same key has to
	// start a fresh compute (blocking again), not adopt the cancelled one
	// and answer instantly with its stale error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		_, err := svc.Check(ctx2, src, nil, slowOpts())
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("second check returned immediately (%v): adopted the cancelled entry", err)
	case <-time.After(150 * time.Millisecond):
		// Still computing: the key was recomputed on a fresh slot.
	}
	cancel2()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("second cancelled check returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second cancelled check did not return")
	}

	if m := svc.Metrics(); m.Misses != 2 || m.Hits != 0 || m.Coalesced != 0 {
		t.Fatalf("metrics after two cancelled computes: %+v, want 2 misses and no hits/coalesces", m)
	}

	// The single worker slot must be free again: a quick check on the same
	// one-slot service has to complete.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := svc.Check(context.Background(), src, nil, Options{Depth: 8, RandomRuns: -1})
		if err != nil {
			t.Errorf("post-cancel check: %v", err)
		} else if v.Status != StatusPass {
			t.Errorf("post-cancel check status = %v, want pass", v.Status)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker slot leaked: post-cancel check never ran")
	}
}

// TestCancellationIsDeadlineBounded measures the execution layer: a
// deadline firing mid-exhaustive-enumeration must surface within a small
// multiple of one simulation run, not after the remaining millions of
// runs, and the compute goroutine itself must stop (InFlight drains).
func TestCancellationIsDeadlineBounded(t *testing.T) {
	svc := New(1)
	src := corpus.EdgeDetect().Source()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := svc.Check(ctx, src, nil, slowOpts())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The full enumeration takes seconds; a bounded cancellation returns
	// within the deadline plus scheduling slack.
	if elapsed > time.Second {
		t.Fatalf("check returned %v after a 50ms deadline: cancellation is not deadline-bounded", elapsed)
	}

	// The caller returning is not enough — the abandoned compute must stop
	// burning the pool. Poll until the in-flight gauge drains.
	deadline := time.Now().Add(2 * time.Second)
	for svc.Metrics().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned compute still in flight: cancellation did not reach the simulation loop")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunCancelledWhileQueued cancels a Run that is still waiting for a
// worker slot: it must return ctx.Err() without running, and must not
// take the slot with it, so a later Check on the same one-slot service
// still completes once the holder finishes.
func TestRunCancelledWhileQueued(t *testing.T) {
	svc := New(1)
	src := corpus.EdgeDetect().Source()

	// Hold the only slot with a long check.
	holdCtx, release := context.WithCancel(context.Background())
	held := make(chan error, 1)
	go func() {
		_, err := svc.Check(holdCtx, src, nil, slowOpts())
		held <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for svc.Metrics().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("holder never took the worker slot")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := svc.Run(ctx, passSrc, nil, Options{Depth: 8})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Run queue for the slot
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Run did not return while queued")
	}
	if m := svc.Metrics(); m.InFlight != 1 {
		t.Fatalf("in flight = %d after the queued Run left, want 1 (the holder)", m.InFlight)
	}

	release()
	if err := <-held; !errors.Is(err, context.Canceled) {
		t.Fatalf("holder returned %v, want context.Canceled", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := svc.Check(context.Background(), passSrc, nil, Options{Depth: 8})
		if err != nil || v.Status != StatusPass {
			t.Errorf("post-cancel check: status %v, err %v", v.Status, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker slot leaked: post-cancel check never ran")
	}
	if m := svc.Metrics(); m.InFlight != 0 {
		t.Errorf("in flight = %d after every check returned, want 0", m.InFlight)
	}
}
