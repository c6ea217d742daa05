// Package cluster is the distributed tier of the profile aggregation
// service: a coordinator that fans profiling jobs out across N worker
// pathprofd daemons and shards the per-(benchmark, k) fleet profiles
// over them with consistent hashing.
//
// The design leans on the merge algebra's guarantees (internal/merge): since
// snapshot folding is associative, commutative, and saturating with a
// byte-stable encoding, a job split into per-worker shard chunks and folded
// back on the coordinator is byte-identical to the same job run on one node —
// the oracle's CheckMerge invariant, promoted to a cluster topology. The
// coordinator is therefore free to dispatch chunks least-loaded, retry them
// on other workers after a crash or timeout, and fold results in completion
// order, without any of it being observable in the profiles.
//
// Roles:
//
//   - Worker: a plain pathprofd daemon started with FleetIngestOnly
//     (cmd/pathprofd -mode worker). It executes sub-jobs and serves the
//     fleet cells the coordinator installs on it, but never self-folds.
//   - Coordinator: this package's Coordinator (cmd/pathprofd -mode
//     coordinator). It owns the authoritative fleet fold, pushes each cell
//     to its ring owner after every job, hands cells off when membership
//     changes, and serves the same HTTP API as a single pathprofd — so
//     cmd/profload drives a whole cluster unchanged.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVnodes is the number of virtual nodes each member contributes to
// the hash ring. More vnodes smooth the key distribution (balance within a
// constant factor of uniform across members) at the cost of a larger sorted
// ring; 128 keeps 1000-key imbalance under ~2x in the property tests.
const DefaultVnodes = 128

// Ring is a consistent-hash ring over node names (worker base URLs). The
// zero value is not ready; use NewRing. All methods are safe for concurrent
// use.
//
// The consistency property — the reason the coordinator uses it for fleet
// placement — is that adding or removing one of N nodes remaps only ~1/N of
// the key space, so a membership change hands off a bounded slice of fleet
// cells instead of reshuffling everything.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	// hashes is the sorted ring of vnode positions; owner maps each
	// position to its node.
	hashes []uint64
	owner  map[uint64]string
	nodes  map[string]bool
}

// NewRing builds an empty ring with the given vnode count per node
// (<=0 means DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, owner: map[uint64]string{}, nodes: map[string]bool{}}
}

// hash64 positions a string on the ring (FNV-1a: fast, stable across
// processes, good dispersion for the short vnode labels hashed here).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never errors
	return h.Sum64()
}

// vnodeLabel names vnode i of a node; the label, not the node name, is what
// gets hashed onto the ring.
func vnodeLabel(node string, i int) string { return fmt.Sprintf("%s#%d", node, i) }

// Add inserts a node's vnodes into the ring. Adding a present node is a
// no-op (false); a fresh insert returns true.
func (r *Ring) Add(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return false
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		h := hash64(vnodeLabel(node, i))
		if _, taken := r.owner[h]; taken {
			// A cross-node vnode hash collision would make ownership
			// depend on insertion order; skip the colliding vnode (the
			// node keeps its other vnodes-1 positions).
			continue
		}
		r.owner[h] = node
		r.hashes = append(r.hashes, h)
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
	return true
}

// Remove deletes a node and its vnodes. Removing an absent node is a no-op
// (false).
func (r *Ring) Remove(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return false
	}
	delete(r.nodes, node)
	kept := r.hashes[:0]
	for _, h := range r.hashes {
		if r.owner[h] == node {
			delete(r.owner, h)
			continue
		}
		kept = append(kept, h)
	}
	r.hashes = kept
	return true
}

// Owner returns the node owning key: the first vnode clockwise from the
// key's hash. An empty ring owns nothing ("", false).
func (r *Ring) Owner(key string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 {
		return "", false
	}
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap: keys past the last vnode belong to the first
	}
	return r.owner[r.hashes[i]], true
}

// Nodes returns the current members, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}
