// Package gen is the one lifecycle of an immutable serving snapshot —
// the server's single-node generation and every local shard slot's
// generation alike. A Cell holds the active snapshot; a request pins
// the snapshot it starts on and releases it when done, so a swap never
// pulls a corpus (or a memory-mapped arena) out from under an
// in-flight search. The swap drops the "active" reference; the last
// release drains the snapshot: its arenas are unmapped, then the
// cell's drain hook fires.
package gen

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
)

// Snapshot is the lifecycle state every generation type embeds: its
// number, the arenas it serves from, and its reference count. The zero
// value is born holding the active reference.
type Snapshot struct {
	// Num is the generation number (stamped into the arenas it writes).
	Num uint64

	// arenas are the memory-mapped index files the snapshot's systems
	// serve postings from (AttachArena), unmapped when it drains.
	arenas []*arena.Arena

	// refs counts references minus one — pins plus the active
	// reference, offset so the zero value holds the latter; -1 means
	// drained.
	refs atomic.Int64
}

func (s *Snapshot) snapshot() *Snapshot { return s }

// Arenas returns the arenas attached to the snapshot.
func (s *Snapshot) Arenas() []*arena.Arena { return s.arenas }

// acquire pins the snapshot; false means it already drained.
func (s *Snapshot) acquire() bool {
	for {
		n := s.refs.Load()
		if n < 0 {
			return false
		}
		if s.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// AttachArena points sys, one of the snapshot's systems, at the arena
// file at path. The file is opened and fingerprint-checked against
// sys and globalFP (the corpus-wide fingerprint: the whole cluster's
// under sharding, sys's own corpus single-node). When that fails and
// rebuild is set, the index is built, written atomically, and reopened
// under the snapshot's number. On success the system serves from the
// mapping and the snapshot owns it until it drains. stale is why the
// file on disk was rebuilt (nil when it attached as-is); err is the
// final failure, after which sys keeps serving from heap. Call before
// the snapshot serves.
func (s *Snapshot) AttachArena(sys *core.System, path string, globalFP uint64, rebuild bool) (a *arena.Arena, stale, err error) {
	a, err = openCompatibleArena(sys, path, globalFP)
	if err != nil && rebuild {
		stale = err
		start := time.Now()
		if _, err = sys.BuildIndex(); err != nil {
			return nil, stale, fmt.Errorf("building index: %w", err)
		}
		if err = sys.WriteArena(path, s.Num, globalFP); err != nil {
			return nil, stale, fmt.Errorf("writing (built in %v): %w", time.Since(start), err)
		}
		a, err = openCompatibleArena(sys, path, globalFP)
	}
	if err != nil {
		return nil, stale, err
	}
	sys.UseArena(a)
	s.arenas = append(s.arenas, a)
	return a, stale, nil
}

// openCompatibleArena opens and fingerprint-checks one arena file; on any
// failure the mapping is released and the error returned.
func openCompatibleArena(sys *core.System, path string, globalFP uint64) (*arena.Arena, error) {
	a, err := arena.Open(path)
	if err != nil {
		return nil, err
	}
	if err := sys.ArenaCompatible(a, globalFP); err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// Cell holds the active snapshot of type T (P is *T, which embeds
// Snapshot). The zero Cell is empty; Start installs the first value.
// Pin and Release are allocation-free: they run on every request.
type Cell[T any, P interface {
	*T
	snapshot() *Snapshot
}] struct {
	cur     atomic.Pointer[T]
	onDrain func(P)
}

// Start installs the first active snapshot and the hook every
// snapshot of this cell fires once drained (nil for none). Call once,
// before any Pin.
func (c *Cell[T, P]) Start(first P, onDrain func(P)) {
	c.onDrain = onDrain
	c.cur.Store(first)
}

// Load returns the active snapshot without pinning it: safe for reads
// of immutable fields, not for holding across a swap.
func (c *Cell[T, P]) Load() P { return c.cur.Load() }

// Pin returns the active snapshot with a reference held; it never
// returns a drained snapshot. The retry covers the race where the
// loaded snapshot is swapped out and drains between the load and the
// acquire.
func (c *Cell[T, P]) Pin() P {
	for {
		v := P(c.cur.Load())
		if v.snapshot().acquire() {
			return v
		}
	}
}

// Release drops one reference to v. The last release drains it: the
// arenas are unmapped (no pinned request can still read them), then
// the drain hook fires. v need not be the active snapshot — releasing
// a snapshot that was built but never swapped in drains it at once.
func (c *Cell[T, P]) Release(v P) {
	s := v.snapshot()
	if s.refs.Add(-1) == -1 {
		for _, a := range s.arenas {
			a.Close()
		}
		if c.onDrain != nil {
			c.onDrain(v)
		}
	}
}

// Swap makes next the active snapshot, drops the old one's active
// reference (it drains once its last pin is released), and returns it.
func (c *Cell[T, P]) Swap(next P) P {
	old := P(c.cur.Swap(next))
	c.Release(old)
	return old
}
