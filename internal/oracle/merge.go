package oracle

import (
	"bytes"
	"fmt"

	"pathprof/internal/instrument"
	"pathprof/internal/merge"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
)

// mergeChunks is how many independently profiled chunks the merge cell
// splits the workload into.
const mergeChunks = 3

// checkMerge validates the profile-aggregation invariant end to end: the
// workload, split into mergeChunks independent runs (seeds seed..seed+S-1)
// each profiled into a fresh store, folded back together through
// merge.MergeAll, must serialize byte-identically to the unsplit
// "concatenated" run — the same S seeds executed back-to-back accumulating
// into one reused store. Checked for every configured store layout at the
// highest configured degree on the register engine (the engine the
// daemon's and the cluster's shards run), so a merge bug cannot hide
// behind any one layout's accumulation path.
func (c *checker) checkMerge() error {
	k := c.cfg.Ks[len(c.cfg.Ks)-1]
	eng := pipeline.EngineReg
	cfg := instrument.Config{K: k, Loops: true, Interproc: true}
	for _, kind := range c.cfg.Stores {
		cl := cell{k: k, kind: kind, eng: eng}

		whole := profile.NewStore(kind, c.p.Info)
		snaps := make([]*merge.Snapshot, 0, mergeChunks)
		for i := 0; i < mergeChunks; i++ {
			seed := c.seed + uint64(i)
			// Concatenated side: accumulate into the one reused store.
			if _, err := c.p.ExecuteStore(eng, cfg, seed, nil, whole, c.cfg.MaxRunSteps); err != nil {
				return fmt.Errorf("oracle: merge whole chunk %d store=%s: %w", i, kind, err)
			}
			// Split side: a fresh store per chunk, snapshotted.
			r, err := c.p.ExecuteStore(eng, cfg, seed, nil, profile.NewStore(kind, c.p.Info), c.cfg.MaxRunSteps)
			if err != nil {
				return fmt.Errorf("oracle: merge chunk %d store=%s: %w", i, kind, err)
			}
			c.res.Runs += 2
			if c.tamperChunk != nil {
				c.tamperChunk(i, r.Counters)
			}
			snaps = append(snaps, merge.New(k, 2, r.Counters))
		}

		merged, err := merge.MergeAll(snaps...)
		if err != nil {
			return fmt.Errorf("oracle: merge fold store=%s: %w", kind, err)
		}
		var mergedRaw, wholeRaw bytes.Buffer
		if err := merged.Counters.Serialize(&mergedRaw); err != nil {
			return fmt.Errorf("oracle: merge serialize store=%s: %w", kind, err)
		}
		if err := whole.Counters().Serialize(&wholeRaw); err != nil {
			return fmt.Errorf("oracle: merge whole serialize store=%s: %w", kind, err)
		}
		if !bytes.Equal(mergedRaw.Bytes(), wholeRaw.Bytes()) {
			c.violate("merge", cl,
				"merged %d-chunk profile diverges from concatenated run (%d vs %d bytes)",
				mergeChunks, mergedRaw.Len(), wholeRaw.Len())
		}
	}
	return nil
}
