package limits_test

import (
	"testing"

	"pathprof/internal/limits"
)

func TestK(t *testing.T) {
	for _, v := range []int{-1, 0, 1, 64} {
		if err := limits.K(v); err != nil {
			t.Errorf("K(%d) = %v, want nil", v, err)
		}
	}
	for _, v := range []int{-2, 65, 1 << 20} {
		if err := limits.K(v); err == nil {
			t.Errorf("K(%d) accepted, want error", v)
		}
	}
	if got, want := limits.K(-5).Error(), "k must be in [-1,64], got -5"; got != want {
		t.Errorf("K(-5) message = %q, want %q", got, want)
	}
}

func TestIters(t *testing.T) {
	for _, v := range []int{0, 2} {
		if err := limits.Iters(v); err != nil {
			t.Errorf("Iters(%d) = %v, want nil", v, err)
		}
	}
	for _, v := range []int{1, 3, 4, -2, 1 << 20} {
		if err := limits.Iters(v); err == nil {
			t.Errorf("Iters(%d) accepted, want error", v)
		}
	}
	if got, want := limits.Iters(3).Error(), "iters must be 2 (the two-iteration window), got 3"; got != want {
		t.Errorf("Iters(3) message = %q, want %q", got, want)
	}
}

func TestShards(t *testing.T) {
	for _, v := range []int{1, 32, 64} {
		if err := limits.Shards(v, 64); err != nil {
			t.Errorf("Shards(%d, 64) = %v, want nil", v, err)
		}
	}
	for _, v := range []int{0, -2, 65} {
		if err := limits.Shards(v, 64); err == nil {
			t.Errorf("Shards(%d, 64) accepted, want error", v)
		}
	}
	// The message format matches the daemon's historical wording exactly.
	if got, want := limits.Shards(10_000, 64).Error(), "shards must be in [1,64], got 10000"; got != want {
		t.Errorf("Shards message = %q, want %q", got, want)
	}
}
