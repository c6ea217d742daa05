package cluster

import (
	"net/http"
	"strings"

	"pathprof/internal/core"
	"pathprof/internal/server"
)

// routes is the coordinator's HTTP surface: the client-facing part of the
// daemon's routes (no chunk call, install or delete), served by the same
// job front-end, plus the cluster-membership extension.
var routes = []struct {
	pattern string
	handle  func(*Coordinator, http.ResponseWriter, *http.Request)
}{
	{"POST /v1/jobs", (*Coordinator).HandleSubmit},
	{"GET /v1/jobs/{id}", (*Coordinator).HandleJobStatus},
	{"GET /v1/jobs/{id}/profile", (*Coordinator).HandleJobProfile},
	{"GET /v1/jobs/{id}/trace", (*Coordinator).HandleJobTrace},
	{"GET /v1/profiles/{benchmark}", (*Coordinator).handleFleetProfile},
	{"GET /v1/pgo/{benchmark}", (*Coordinator).handlePGOExport},
	{"GET /v1/cluster", (*Coordinator).handleClusterInfo},
	{"POST /v1/cluster/join", (*Coordinator).handleJoin},
	{"POST /v1/cluster/leave", (*Coordinator).handleLeave},
	{"GET /metrics", (*Coordinator).handleMetrics},
	{"GET /healthz", (*Coordinator).HandleHealthz},
}

// Endpoints lists every route New registers, in registration order.
// DESIGN.md §14 documents each one and internal/tools/docscheck keeps the
// two lists in sync.
var Endpoints = func() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.pattern
	}
	return out
}()

// Handler returns the coordinator's HTTP handler: the same API a single
// pathprofd serves, so clients (profload included) are topology-agnostic.
func (c *Coordinator) Handler() http.Handler { return c.mux }

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
		server.WriteError(w, status, msg)
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
		server.WriteError(w, status, msg)
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
	server.WriteJSON(w, http.StatusOK, info)
}

// memberURL decodes a join or leave body, {"url": ...}, and returns the
// member's base URL; it answers 400 and reports false when none is named.
func memberURL(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req struct {
		URL string `json:"url"`
	}
	if err := server.DecodeBody(w, r, &req); err != nil || req.URL == "" {
		server.WriteError(w, http.StatusBadRequest, "body must be {\"url\": \"http://worker:port\"}")
		return "", false
	}
	return strings.TrimRight(req.URL, "/"), true
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	url, ok := memberURL(w, r)
	if !ok {
		return
	}
	if !c.AddWorker(r.Context(), url) {
		server.WriteError(w, http.StatusConflict, "already a member")
		return
	}
	server.WriteJSON(w, http.StatusOK, ClusterInfo{Members: c.ring.Nodes(), Vnodes: c.vnodes()})
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	url, ok := memberURL(w, r)
	if !ok {
		return
	}
	if !c.RemoveWorker(r.Context(), url) {
		server.WriteError(w, http.StatusNotFound, "not a member")
		return
	}
	server.WriteJSON(w, http.StatusOK, ClusterInfo{Members: c.ring.Nodes(), Vnodes: c.vnodes()})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.metricsSnapshot())
}
