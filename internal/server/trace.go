package server

import (
	"net/http"

	"pathprof/internal/obs"
)

// Stable span stage names: every span in a job's trace tree carries one of
// these names, in the taxonomy documented in DESIGN.md §12 (and asserted
// against it by internal/tools/docscheck in CI):
//
//	job
//	├── queue              accepted → picked up by a runner
//	├── resolve            pipeline lookup/build for the job's program
//	├── shard (×N)         one per shard; pool wait + execution
//	│   └── execute        the instrumented run itself
//	├── merge              folding the shard snapshots
//	├── estimate           flow estimation over the merged profile
//	└── persist            durable append to the profile store (only when
//	                       the daemon runs with -data-dir)
const (
	// StageJob is the root span covering a job accept-to-settle.
	StageJob = "job"
	// StageQueue covers the bounded-queue wait before a runner dequeues.
	StageQueue = "queue"
	// StageResolve covers resolving (building or cache-hitting) the
	// job's program pipeline.
	StageResolve = "resolve"
	// StageShard covers one shard end to end: worker-pool wait plus the
	// child execute span.
	StageShard = "shard"
	// StageExecute covers one shard's instrumented VM execution.
	StageExecute = "execute"
	// StageMerge covers folding the job's shard snapshots into one.
	StageMerge = "merge"
	// StageEstimate covers the definite/potential flow estimation over
	// the merged profile.
	StageEstimate = "estimate"
	// StagePersist covers the durable append of the job's merged snapshot
	// to the persistent profile store — the fsync'd write that makes the
	// job's fleet contribution survive kill -9. Present only when the
	// daemon runs with a -data-dir.
	StagePersist = "persist"
)

// SpanStages lists every stage name a job trace can contain, root first —
// the set docscheck cross-references against DESIGN.md §12.
var SpanStages = []string{
	StageJob, StageQueue, StageResolve, StageShard, StageExecute, StageMerge, StageEstimate, StagePersist,
}

// JobTrace is the GET /v1/jobs/{id}/trace body: the job's span tree as of
// the request. Traces of running jobs contain open spans (Open=true); the
// tree is complete once State is done or failed.
type JobTrace struct {
	// ID is the job's identifier.
	ID string `json:"id"`
	// State mirrors JobStatus.State at snapshot time.
	State string `json:"state"`
	// Root is the job span; offsets inside are relative to its start.
	Root *obs.SpanNode `json:"root"`
}

// countingWriter counts bytes flowing to an http.ResponseWriter so served
// snapshot sizes feed the snapshot_bytes histogram.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
