package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"pathprof/internal/core"
	"pathprof/internal/obs"
	"pathprof/internal/server"
)

// Endpoints lists every HTTP route the coordinator serves — the
// client-facing part of server.Endpoints (no chunk call, install or delete)
// plus the cluster-membership extension. DESIGN.md §14 documents each one
// and internal/tools/docscheck keeps the two lists in sync.
var Endpoints = []string{
	"POST /v1/jobs",
	"GET /v1/jobs/{id}",
	"GET /v1/jobs/{id}/profile",
	"GET /v1/jobs/{id}/trace",
	"GET /v1/profiles/{benchmark}",
	"GET /v1/pgo/{benchmark}",
	"GET /v1/cluster",
	"POST /v1/cluster/join",
	"POST /v1/cluster/leave",
	"GET /metrics",
	"GET /healthz",
}

func (c *Coordinator) initMux() {
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleJobStatus)
	c.mux.HandleFunc("GET /v1/jobs/{id}/profile", c.handleJobProfile)
	c.mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleJobTrace)
	c.mux.HandleFunc("GET /v1/profiles/{benchmark}", c.handleFleetProfile)
	c.mux.HandleFunc("GET /v1/pgo/{benchmark}", c.handlePGOExport)
	c.mux.HandleFunc("GET /v1/cluster", c.handleClusterInfo)
	c.mux.HandleFunc("POST /v1/cluster/join", c.handleJoin)
	c.mux.HandleFunc("POST /v1/cluster/leave", c.handleLeave)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
}

// Handler returns the coordinator's HTTP handler: the same API a single
// pathprofd serves, so clients (profload included) are topology-agnostic.
func (c *Coordinator) Handler() http.Handler { return c.mux }

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c.drainMu.RLock()
	accepting := c.accepting
	c.drainMu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !accepting {
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

const maxRequestBody = 1 << 20

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req server.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed job request: "+err.Error())
		return
	}
	if err := c.validate(&req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if c.ring.Len() == 0 {
		writeError(w, http.StatusServiceUnavailable, "no workers in the ring")
		return
	}

	c.drainMu.RLock()
	defer c.drainMu.RUnlock()
	if !c.accepting {
		writeError(w, http.StatusServiceUnavailable, "coordinator is draining")
		return
	}

	c.jobsMu.Lock()
	c.nextID++
	j := &cjob{id: fmt.Sprintf("c-%d", c.nextID), req: req, state: "queued", done: make(chan struct{})}
	j.span = obs.NewSpan(StageClusterJob)
	j.span.SetAttr("job_id", j.id)
	j.queueSpan = j.span.Child(StageClusterQueue)
	c.jobs[j.id] = j
	c.jobsMu.Unlock()

	c.jobWG.Add(1)
	select {
	case c.queue <- j:
		c.metrics.jobsAccepted.Add(1)
		c.log.Info("cjob.accepted", "job_id", j.id, "benchmark", req.Benchmark,
			"k", req.K, "shards", req.Shards)
		writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id})
	default:
		c.jobWG.Done()
		c.jobsMu.Lock()
		delete(c.jobs, j.id)
		c.jobsMu.Unlock()
		c.metrics.jobsRejected.Add(1)
		writeError(w, http.StatusTooManyRequests, "job queue is full")
	}
}

func (c *Coordinator) lookup(id string) *cjob {
	c.jobsMu.RLock()
	defer c.jobsMu.RUnlock()
	return c.jobs[id]
}

func (c *Coordinator) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (c *Coordinator) handleJobProfile(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	snap, state := j.snap, j.state
	j.mu.Unlock()
	if snap == nil {
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; no merged profile", state))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	snap.Encode(w) //nolint:errcheck // client went away
}

func (c *Coordinator) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := c.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, server.JobTrace{ID: j.id, State: state, Root: j.span.Tree()})
}

// handleFleetProfile serves one fleet cell. Cell selection is the
// single daemon's (server.SelectCell); the
// bytes come from the cell's ring owner when its install is clean, falling
// back to the coordinator's authoritative copy (after a re-push attempt)
// when the owner is stale or unreachable — reads never fail because a
// worker died.
func (c *Coordinator) handleFleetProfile(w http.ResponseWriter, r *http.Request) {
	c.fleetMu.Lock()
	key, status, msg := server.SelectCell(r, r.PathValue("benchmark"), c.fleet)
	if status != 0 {
		c.fleetMu.Unlock()
		writeError(w, status, msg)
		return
	}
	cl := c.fleet[key]
	dirty := cl.dirty
	installedOn := cl.installedOn
	local := cl.snap.Clone()
	c.fleetMu.Unlock()

	if dirty {
		// Heal before serving: a successful re-push flips the cell clean
		// and the owner read below is exact again.
		c.pushCell(r.Context(), key)
		c.fleetMu.Lock()
		dirty = c.fleet[key].dirty
		installedOn = c.fleet[key].installedOn
		c.fleetMu.Unlock()
	}
	if !dirty && installedOn != "" {
		if wk := c.worker(installedOn); wk != nil {
			if raw, err := wk.fetchFleet(r.Context(), key.Bench, key.K); err == nil {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.Write(raw) //nolint:errcheck // client went away
				return
			}
			c.log.Warn("fleet.read.owner_failed", "cell", key.String(), "owner", installedOn)
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	local.Encode(w) //nolint:errcheck // client went away
}

// handlePGOExport serves one fleet cell in pathprof's saved-run format —
// the exact bytes `pathprof -pgo` accepts for profile-guided layout. Cell
// addressing matches GET /v1/profiles/{benchmark}; the bytes always come
// from the coordinator's authoritative local copy, because a layout
// derivation wants one consistent snapshot, not the freshest owner read.
func (c *Coordinator) handlePGOExport(w http.ResponseWriter, r *http.Request) {
	c.fleetMu.Lock()
	key, status, msg := server.SelectCell(r, r.PathValue("benchmark"), c.fleet)
	if status != 0 {
		c.fleetMu.Unlock()
		writeError(w, status, msg)
		return
	}
	local := c.fleet[key].snap.Clone()
	c.fleetMu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	core.SaveRun(w, core.RunFromCounters(key.K, 2, local.Counters)) //nolint:errcheck // client went away
}

// ClusterInfo is the GET /v1/cluster body: the membership and where each
// tracked fleet cell currently lives.
type ClusterInfo struct {
	// Members are the ring's current worker base URLs, sorted.
	Members []string `json:"members"`
	// Vnodes is the per-member virtual-node count.
	Vnodes int `json:"vnodes"`
	// Cells maps each tracked fleet cell (String form) to the member it
	// is installed on ("" while dirty/unplaced).
	Cells map[string]string `json:"cells,omitempty"`
}

// vnodes is the effective per-member virtual-node count.
func (c *Coordinator) vnodes() int {
	if c.cfg.Vnodes > 0 {
		return c.cfg.Vnodes
	}
	return DefaultVnodes
}

func (c *Coordinator) handleClusterInfo(w http.ResponseWriter, _ *http.Request) {
	info := ClusterInfo{Members: c.ring.Nodes(), Vnodes: c.vnodes(), Cells: map[string]string{}}
	c.fleetMu.Lock()
	for key, cl := range c.fleet {
		on := cl.installedOn
		if cl.dirty {
			on = ""
		}
		info.Cells[key.String()] = on
	}
	c.fleetMu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// memberRequest is the join/leave body.
type memberRequest struct {
	URL string `json:"url"`
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req memberRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil || req.URL == "" {
		writeError(w, http.StatusBadRequest, "body must be {\"url\": \"http://worker:port\"}")
		return
	}
	if !c.AddWorker(r.Context(), strings.TrimRight(req.URL, "/")) {
		writeError(w, http.StatusConflict, "already a member")
		return
	}
	writeJSON(w, http.StatusOK, ClusterInfo{Members: c.ring.Nodes(), Vnodes: c.vnodes()})
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req memberRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil || req.URL == "" {
		writeError(w, http.StatusBadRequest, "body must be {\"url\": \"http://worker:port\"}")
		return
	}
	if !c.RemoveWorker(r.Context(), strings.TrimRight(req.URL, "/")) {
		writeError(w, http.StatusNotFound, "not a member")
		return
	}
	writeJSON(w, http.StatusOK, ClusterInfo{Members: c.ring.Nodes(), Vnodes: c.vnodes()})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.metricsSnapshot())
}

// writeJSON writes v as an indented JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response writer errors are the client's problem
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
