// Package resilience provides the failure-handling primitives of the
// serving stack: bounded retry with exponential backoff and jitter, and
// a circuit breaker with a sliding failure window. They guard what
// crosses a network: the peer client (internal/peer) retries and
// breaks per peer, and a shard slot (internal/shard) breaks a failing
// leg so that a search answers partial instead of waiting on it.
package resilience

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// RetryPolicy bounds a retried operation. The zero value retries with
// the defaults below.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included);
	// <= 0 means DefaultMaxAttempts.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; <= 0 means
	// DefaultBaseDelay. Each further attempt doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; <= 0 means DefaultMaxDelay.
	MaxDelay time.Duration
	// Jitter is the fraction of each delay drawn uniformly at random
	// (full jitter on that fraction); < 0 disables, 0 means
	// DefaultJitter. Jitter decorrelates retry storms across requests.
	Jitter float64
}

// Retry defaults: three attempts, 10ms initial backoff doubling to at
// most 200ms, 50% jitter.
const (
	DefaultMaxAttempts = 3
	DefaultBaseDelay   = 10 * time.Millisecond
	DefaultMaxDelay    = 200 * time.Millisecond
	DefaultJitter      = 0.5
)

func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.Jitter == 0 {
		p.Jitter = DefaultJitter
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// Do runs fn up to MaxAttempts times, sleeping an exponentially growing
// jittered backoff between attempts. It returns nil on the first
// success, the last error once attempts are exhausted, and stops
// immediately — returning the context error — when ctx is done or fn's
// error is itself a context error (cancellation is not a retryable
// fault).
func (p RetryPolicy) Do(ctx context.Context, fn func() error) error {
	p = p.normalized()
	delay := p.BaseDelay
	var err error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := delay
			if p.Jitter > 0 {
				jittered := float64(d) * p.Jitter * rand.Float64()
				d = d - time.Duration(float64(d)*p.Jitter) + time.Duration(jittered)
			}
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
			delay *= 2
			if delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = fn(); err == nil {
			return nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return err
}
