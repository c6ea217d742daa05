package server

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// retryDelay is the nth (0-based) retry delay: exponential from base,
// capped, then jittered by a uniform factor in [0.5, 1.5). Without the
// jitter, every retrier bounced by the same full queue would sleep the
// same deterministic 2ms, 4ms, 8ms... and re-offer the identical burst that
// got it 429'd in the first place; the jitter spreads the herd out.
func retryDelay(rng *rand.Rand, n int, base, cap time.Duration) time.Duration {
	d := base << uint(n)
	if d > cap || d <= 0 {
		d = cap
	}
	return time.Duration((0.5 + rng.Float64()) * float64(d))
}

// Backoff paces retries with jittered delays drawn from its own random
// stream. It is safe for concurrent use.
type Backoff struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff returns a Backoff whose jitter stream starts at seed.
func NewBackoff(seed int64) *Backoff {
	return &Backoff{rng: rand.New(rand.NewSource(seed))}
}

// Sleep waits out the delay of retry n (0-based) — exponential from base,
// capped at cap, jittered — or until ctx is done, returning ctx.Err().
func (b *Backoff) Sleep(ctx context.Context, n int, base, cap time.Duration) error {
	b.mu.Lock()
	d := retryDelay(b.rng, n, base, cap)
	b.mu.Unlock()
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
