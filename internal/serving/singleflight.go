package serving

import (
	"context"
	"sync"
	"sync/atomic"
)

// Group deduplicates concurrent calls that share a key: the first call
// starts the work, later calls wait for the same result. The work runs
// in its own goroutine under a context detached from any single caller,
// so one impatient caller canceling does not abort a computation other
// callers still want. Flights are waiter-refcounted: when the LAST
// waiter abandons (its context fires), the flight's context is canceled
// too — a search nobody is waiting on must not keep fanning out over
// shards and peers.
type Group[V any] struct {
	mu     sync.Mutex
	calls  map[string]*flight[V]
	shared atomic.Int64
}

type flight[V any] struct {
	done    chan struct{}
	val     V
	err     error
	waiters int
	cancel  context.CancelFunc
}

// Do returns the result of fn for key, executing fn at most once among
// concurrent callers with the same key. The boolean is true for a
// follower — a caller that coalesced onto another caller's flight,
// whether it received the result or abandoned while waiting — and
// false for the leader that started the flight, even when followers
// joined it. fn receives a context
// detached from any one caller's cancellation but canceled once every
// waiter has abandoned; it must additionally bound its own lifetime
// (the serving layer passes a deadline).
func (g *Group[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, error, bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flight[V])
	}
	if f, ok := g.calls[key]; ok {
		f.waiters++
		g.mu.Unlock()
		g.shared.Add(1)
		return g.wait(ctx, key, f, true)
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.calls[key] = f
	g.mu.Unlock()

	go func() {
		f.val, f.err = fn(fctx)
		g.mu.Lock()
		// The last abandoning waiter may already have removed the flight
		// (and a fresh flight may have taken the key); only delete our own.
		if g.calls[key] == f {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		cancel()
		close(f.done)
	}()
	return g.wait(ctx, key, f, false)
}

// wait returns the flight's result to one caller.
func (g *Group[V]) wait(ctx context.Context, key string, f *flight[V], shared bool) (V, error, bool) {
	select {
	case <-f.done:
		return f.val, f.err, shared
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			// Remove the flight from the map BEFORE canceling it, so a new
			// caller arriving between the two steps starts a fresh flight
			// instead of coalescing onto one that is about to be canceled.
			if g.calls[key] == f {
				delete(g.calls, key)
			}
			g.mu.Unlock()
			f.cancel()
		} else {
			g.mu.Unlock()
		}
		var zero V
		return zero, ctx.Err(), shared
	}
}

// Shared reports how many calls were coalesced onto another caller's
// flight since the group was created.
func (g *Group[V]) Shared() int64 { return g.shared.Load() }

// InFlight reports the number of keys currently executing.
func (g *Group[V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
