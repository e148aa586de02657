package resilience

import (
	"sync"
	"time"
)

// State is a circuit breaker's position.
type State int32

const (
	// Closed: requests flow normally; failures are counted.
	Closed State = iota
	// Open: requests are rejected without attempting the guarded call.
	Open
	// HalfOpen: a bounded number of probe calls test recovery.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a Breaker. The zero value uses the defaults
// below.
type BreakerConfig struct {
	// Threshold is the number of failures within Window that trips the
	// breaker open; <= 0 means DefaultBreakerThreshold.
	Threshold int
	// Window is the sliding interval failures are counted over; <= 0
	// means DefaultBreakerWindow.
	Window time.Duration
	// Cooldown is how long the breaker stays open before letting probe
	// calls through (half-open); <= 0 means DefaultBreakerCooldown.
	Cooldown time.Duration
	// Probes is how many half-open successes close the breaker (and how
	// many concurrent probes are admitted); <= 0 means 1.
	Probes int
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Breaker defaults: 5 failures in 30 seconds trip it, 10 seconds of
// cooldown, one probe re-closes it.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerWindow    = 30 * time.Second
	DefaultBreakerCooldown  = 10 * time.Second
)

func (c BreakerConfig) normalized() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = DefaultBreakerThreshold
	}
	if c.Window <= 0 {
		c.Window = DefaultBreakerWindow
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultBreakerCooldown
	}
	if c.Probes <= 0 {
		c.Probes = 1
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is a closed/open/half-open circuit breaker counting failures
// over a sliding window. It is safe for concurrent use. Callers ask
// Allow before the guarded operation and report Success or Failure
// after; when Allow returns false the caller takes its fallback path
// (for a shard slot or a peer: the leg is skipped and the answer is
// partial).
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     State
	failures  []time.Time // within cfg.Window, oldest first
	openedAt  time.Time
	halfAt    time.Time // when the breaker went half-open
	probes    int       // probes admitted this half-open episode
	successes int       // probe successes this half-open episode

	opens    int64
	rejected int64
}

// NewBreaker builds a breaker (zero-valued config fields take the
// package defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.normalized()}
}

// Allow reports whether the guarded call may proceed, advancing
// open → half-open once the cooldown has elapsed. A true return in
// half-open consumes a probe slot; the caller must follow up with
// Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Clock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			b.rejected++
			return false
		}
		b.toHalfOpen(now)
		b.probes = 1
		return true
	default: // HalfOpen
		if b.probes < b.cfg.Probes {
			b.probes++
			return true
		}
		// Probes that never report back (e.g. caller canceled) must not
		// wedge the breaker half-open forever: after a further cooldown
		// with no verdict, start a fresh probe round.
		if now.Sub(b.halfAt) >= b.cfg.Cooldown {
			b.toHalfOpen(now)
			b.probes = 1
			return true
		}
		b.rejected++
		return false
	}
}

// Success reports a successful guarded call. In half-open it counts
// toward re-closing; in closed it is a no-op (the window forgets old
// failures by itself).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != HalfOpen {
		return
	}
	b.successes++
	if b.successes >= b.cfg.Probes {
		b.state = Closed
		b.failures = b.failures[:0]
		b.probes, b.successes = 0, 0
	}
}

// Failure reports a failed guarded call. In closed it is counted
// against the sliding window and may trip the breaker; in half-open it
// re-opens immediately (the dependency is still sick).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Clock()
	switch b.state {
	case HalfOpen:
		b.trip(now)
	case Closed:
		cut := now.Add(-b.cfg.Window)
		keep := b.failures[:0]
		for _, t := range b.failures {
			if t.After(cut) {
				keep = append(keep, t)
			}
		}
		b.failures = append(keep, now)
		if len(b.failures) >= b.cfg.Threshold {
			b.trip(now)
		}
	}
}

func (b *Breaker) trip(now time.Time) {
	b.state = Open
	b.openedAt = now
	b.failures = b.failures[:0]
	b.probes, b.successes = 0, 0
	b.opens++
}

func (b *Breaker) toHalfOpen(now time.Time) {
	b.state = HalfOpen
	b.halfAt = now
	b.probes, b.successes = 0, 0
}

// State returns the breaker's current position (advancing open to
// half-open if the cooldown has elapsed, so observers see the state a
// caller would).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.toHalfOpen(b.cfg.Clock())
	}
	return b.state
}

// BreakerMetrics is the observable breaker state for /metrics and
// /readyz.
type BreakerMetrics struct {
	State    string `json:"state"`
	Opens    int64  `json:"opens"`
	Rejected int64  `json:"rejected"`
}

// Metrics snapshots the breaker counters.
func (b *Breaker) Metrics() BreakerMetrics {
	state := b.State().String()
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerMetrics{State: state, Opens: b.opens, Rejected: b.rejected}
}
