// Package limits centralizes the bounds validation every user-facing
// surface — the pathprof CLI flags, the pathprofd and coordinator job
// requests, and every decoder of a width read from outside the process —
// applies to profiling parameters, so the accepted ranges and the error
// wording cannot drift between them. The range validators share one
// message format:
//
//	<name> must be in [lo,hi], got <v>
package limits

import "fmt"

const (
	// MinK / MaxK bound the overlap degree; -1 means Ball-Larus only.
	MinK = -1
	MaxK = 64
)

// inRange is the one range check (and the one error format) every range
// validator uses.
func inRange(name string, v, lo, hi int) error {
	if v < lo || v > hi {
		return fmt.Errorf("%s must be in [%d,%d], got %d", name, lo, hi, v)
	}
	return nil
}

// K validates an overlap degree (-1 = Ball-Larus only). Degrees above the
// program's maximum useful degree are legal — they clamp per region — so
// the ceiling here only guards against nonsense input.
func K(v int) error { return inRange("k", v, MinK, MaxK) }

// Iters validates a loop window width. Overlapping loop paths span the
// paper's two iterations, so 2 is the only width; 0 stands for an absent
// field and means the same.
func Iters(v int) error {
	if v != 0 && v != 2 {
		return fmt.Errorf("iters must be 2 (the two-iteration window), got %d", v)
	}
	return nil
}

// Shards validates a per-job shard count against the caller's configured
// maximum (the daemon's Config.MaxShards).
func Shards(v, max int) error { return inRange("shards", v, 1, max) }
