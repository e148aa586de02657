package serving

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleflightExecutesOnce(t *testing.T) {
	var g Group[int]
	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i], _ = g.Do(context.Background(), "k", func(context.Context) (int, error) {
				calls.Add(1)
				<-gate // hold the flight open until everyone has joined
				return 42, nil
			})
		}(i)
	}
	// Wait until the flight is registered and give joiners time to pile on.
	for g.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn executed %d times, want 1", c)
	}
	for i := range results {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("caller %d got (%d, %v)", i, results[i], errs[i])
		}
	}
	if g.Shared() == 0 {
		t.Fatal("no calls reported shared")
	}
	if g.InFlight() != 0 {
		t.Fatalf("flights still registered: %d", g.InFlight())
	}
}

func TestSingleflightSequentialCallsRerun(t *testing.T) {
	var g Group[int]
	calls := 0
	for i := 0; i < 3; i++ {
		v, err, shared := g.Do(context.Background(), "k", func(context.Context) (int, error) {
			calls++
			return calls, nil
		})
		if err != nil || shared || v != i+1 {
			t.Fatalf("call %d: (%d, %v, shared=%v)", i, v, err, shared)
		}
	}
}

func TestSingleflightDistinctKeysDoNotCoalesce(t *testing.T) {
	var g Group[string]
	var wg sync.WaitGroup
	var calls atomic.Int64
	for _, k := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			v, err, _ := g.Do(context.Background(), k, func(context.Context) (string, error) {
				calls.Add(1)
				return k, nil
			})
			if err != nil || v != k {
				t.Errorf("key %s: (%q, %v)", k, v, err)
			}
		}(k)
	}
	wg.Wait()
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

// When the LAST waiter abandons a flight, the flight's context is
// canceled too: nobody is waiting for the answer, so the execution
// (shard fan-out, peer RPCs) must stop instead of running to its
// deadline.
func TestSingleflightAbandonCancelsFlight(t *testing.T) {
	var g Group[int]
	execCtx := make(chan context.Context, 1)
	ctx, cancel := context.WithCancel(context.Background())
	v, err, _ := g.Do(ctx, "k", func(fctx context.Context) (int, error) {
		execCtx <- fctx
		cancel() // the only caller hangs up mid-execution
		<-fctx.Done()
		return 0, fctx.Err()
	})
	if err != context.Canceled || v != 0 {
		t.Fatalf("abandoning caller got (%d, %v), want (0, context.Canceled)", v, err)
	}
	fctx := <-execCtx
	select {
	case <-fctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("flight context not canceled after the last waiter abandoned")
	}
	// The abandoned key is free again: a new caller starts a fresh
	// flight rather than coalescing onto the canceled one.
	v, err, shared := g.Do(context.Background(), "k", func(fctx context.Context) (int, error) {
		if fctx.Err() != nil {
			t.Error("fresh flight started with a dead context")
		}
		return 9, nil
	})
	if err != nil || v != 9 || shared {
		t.Fatalf("post-abandon call got (%d, %v, shared=%v), want (9, nil, false)", v, err, shared)
	}
}

// A second live waiter keeps the flight alive when the first abandons:
// only the LAST departure cancels.
func TestSingleflightSurvivingWaiterKeepsFlightAlive(t *testing.T) {
	var g Group[int]
	gate := make(chan struct{})
	var sawCancel atomic.Bool
	leaderDone := make(chan error, 1)
	ctx1, cancel1 := context.WithCancel(context.Background())
	go func() {
		_, err, _ := g.Do(ctx1, "k", func(fctx context.Context) (int, error) {
			<-gate
			sawCancel.Store(fctx.Err() != nil)
			return 7, nil
		})
		leaderDone <- err
	}()
	for g.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	survivorDone := make(chan error, 1)
	go func() {
		v, err, _ := g.Do(context.Background(), "k", func(context.Context) (int, error) {
			t.Error("survivor must not start a second flight")
			return 0, nil
		})
		if v != 7 && err == nil {
			t.Errorf("survivor got %d, want 7", v)
		}
		survivorDone <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel1() // the leader hangs up; the survivor still wants the answer
	if err := <-leaderDone; err != context.Canceled {
		t.Fatalf("abandoning leader got %v, want context.Canceled", err)
	}
	time.Sleep(5 * time.Millisecond)
	close(gate)
	if err := <-survivorDone; err != nil {
		t.Fatalf("surviving waiter got %v, want nil", err)
	}
	if sawCancel.Load() {
		t.Fatal("flight context was canceled while a waiter remained")
	}
}

// A waiter that cancels gets its context error immediately, while the
// flight itself completes and serves later callers from the same run.
func TestSingleflightWaiterCancel(t *testing.T) {
	var g Group[int]
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err, _ := g.Do(context.Background(), "k", func(context.Context) (int, error) {
			<-gate
			return 7, nil
		})
		if err != nil || v != 7 {
			t.Errorf("leader got (%d, %v)", v, err)
		}
	}()
	for g.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err, shared := g.Do(ctx, "k", func(context.Context) (int, error) {
			t.Error("waiter must not start a second flight")
			return 0, nil
		})
		if !shared {
			t.Error("waiter not marked shared")
		}
		waiterDone <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-waiterDone; err != context.Canceled {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}
	close(gate)
	<-leaderDone
}
