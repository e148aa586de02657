package gen_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
)

// val is a minimal generation: a Snapshot plus the bookkeeping the
// tests assert on.
type val struct {
	gen.Snapshot
	pinned  atomic.Int64 // pins the test holds right now
	drained atomic.Int64 // drain-hook firings
}

type cell = gen.Cell[val, *val]

// TestPinSwapReleaseStress: readers pin and release continuously while
// a writer swaps in M successors. Pin never returns a drained value,
// and every swapped-out value drains exactly once, only after its last
// release.
func TestPinSwapReleaseStress(t *testing.T) {
	const readers, swaps = 8, 200
	var c cell
	var early atomic.Int64
	c.Start(&val{}, func(v *val) {
		if v.pinned.Load() != 0 {
			early.Add(1)
		}
		v.drained.Add(1)
	})

	var stop atomic.Bool
	var pinnedDrained atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				v := c.Pin()
				v.pinned.Add(1)
				if v.drained.Load() != 0 {
					pinnedDrained.Add(1)
				}
				runtime.Gosched()
				v.pinned.Add(-1)
				c.Release(v)
			}
		}()
	}

	old := make([]*val, 0, swaps)
	for i := 1; i <= swaps; i++ {
		next := &val{}
		next.Num = uint64(i)
		old = append(old, c.Swap(next))
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	if n := pinnedDrained.Load(); n != 0 {
		t.Fatalf("Pin returned a drained value %d times", n)
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d values drained while still pinned", n)
	}
	for _, v := range old {
		if n := v.drained.Load(); n != 1 {
			t.Fatalf("generation %d drained %d times, want 1", v.Num, n)
		}
	}
	if active := c.Load(); active.Num != swaps || active.drained.Load() != 0 {
		t.Fatalf("active generation %d drained %d times", active.Num, active.drained.Load())
	}
}

// TestReleaseUnswapped: a value built but never swapped in (a failed
// swap) drains on its single release.
func TestReleaseUnswapped(t *testing.T) {
	var c cell
	var drained []uint64
	c.Start(&val{}, func(v *val) { drained = append(drained, v.Num) })
	orphan := &val{}
	orphan.Num = 7
	c.Release(orphan)
	if len(drained) != 1 || drained[0] != 7 {
		t.Fatalf("drained = %v, want [7]", drained)
	}
}

// TestPinReleaseNoAlloc: the per-request pin path must not allocate.
func TestPinReleaseNoAlloc(t *testing.T) {
	var c cell
	c.Start(&val{}, nil)
	if n := testing.AllocsPerRun(1000, func() {
		v := c.Pin()
		c.Release(v)
	}); n != 0 {
		t.Fatalf("Pin+Release allocates %v times per run", n)
	}
}

func BenchmarkPinRelease(b *testing.B) {
	var c cell
	c.Start(&val{}, nil)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v := c.Pin()
			c.Release(v)
		}
	})
}
