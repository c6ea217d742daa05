package server

// MaxSettledJobs is how many settled (done or failed) jobs a daemon keeps
// addressable. Once more have settled, the oldest settled job is forgotten
// and its id answers 404 "no such job" on every /v1/jobs/{id} route, so
// the job table — each record holding its merged snapshot and span tree —
// stays bounded however many jobs the daemon serves. Queued and running
// jobs are never evicted.
const MaxSettledJobs = 1024

// SettledJobs is the eviction order of a job table: the ids of settled
// jobs, oldest first. The zero value is ready to use; callers serialize
// access with their job-table lock.
type SettledJobs struct {
	ids []string
}

// Settle records id as settled. When that leaves more than MaxSettledJobs
// settled ids it drops the oldest and returns it, for the caller to delete
// from its job table.
func (r *SettledJobs) Settle(id string) (evicted string, ok bool) {
	r.ids = append(r.ids, id)
	if len(r.ids) <= MaxSettledJobs {
		return "", false
	}
	evicted = r.ids[0]
	r.ids = r.ids[1:]
	return evicted, true
}
