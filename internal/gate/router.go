package gate

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Routing policy names (the -policy flag vocabulary and the bounded
// "policy" metric label).
const (
	// PolicyRoundRobin cycles through the healthy replicas: replica
	// index = request sequence mod healthy count. It is a pure function
	// of the request sequence, ignoring load and content.
	PolicyRoundRobin = "round-robin"
	// PolicyCacheAffinity consistent-hashes the content-addressed
	// RunID onto a fixed ring of replica virtual nodes, so repeat
	// submissions of the same experiment+options always land on the
	// replica that already holds the cached result (and dedup
	// collapses concurrent duplicates on one backend).
	PolicyCacheAffinity = "cache-affinity"
)

// Policies lists the routing policies in documentation order.
func Policies() []string {
	return []string{PolicyRoundRobin, PolicyCacheAffinity}
}

// RouteContext is the routing input for one submission.
type RouteContext struct {
	// Seq is the gate-assigned submission sequence number.
	Seq uint64
	// RunID is the submission's content address (serve.RunID).
	RunID string
	// Class is the normalized SLO class.
	Class string
}

// Router picks a backend for a submission. Pick is called with a
// non-empty candidate slice in registration order; on failover the
// dead replica is removed from the candidates and Pick runs again.
// Implementations must be deterministic: the same (rc, candidates)
// always picks the same replica.
type Router interface {
	// Policy is the router's policy name (one of the Policy constants).
	Policy() string
	// Pick selects one of the candidates.
	Pick(rc RouteContext, candidates []*Replica) *Replica
}

// NewRouter builds the router for a policy name over the full replica
// set (affinity builds its hash ring from all replicas, so the mapping
// is stable across health flaps).
func NewRouter(policy string, replicas []*Replica) (Router, error) {
	switch policy {
	case PolicyRoundRobin:
		return roundRobin{}, nil
	case PolicyCacheAffinity:
		return newAffinity(replicas), nil
	}
	return nil, fmt.Errorf("gate: unknown routing policy %q (valid: %s, %s)",
		policy, PolicyRoundRobin, PolicyCacheAffinity)
}

type roundRobin struct{}

func (roundRobin) Policy() string { return PolicyRoundRobin }

func (roundRobin) Pick(rc RouteContext, candidates []*Replica) *Replica {
	return candidates[rc.Seq%uint64(len(candidates))]
}

// vnodesPerReplica is the virtual-node count per replica on the
// affinity ring. 128 points per replica keeps the maximum load
// imbalance across a handful of replicas within a few percent.
const vnodesPerReplica = 128

// ringPoint is one virtual node: a hash position owned by a replica.
type ringPoint struct {
	hash uint64
	rep  *Replica
}

// affinity is the consistent-hash router. The ring is built once over
// the full replica set; an unhealthy replica's points stay on the ring
// but Pick walks past them to the next candidate point, so keys not
// owned by the dead replica never move (the defining property of
// consistent hashing).
type affinity struct {
	ring []ringPoint
}

func newAffinity(replicas []*Replica) *affinity {
	a := &affinity{ring: make([]ringPoint, 0, len(replicas)*vnodesPerReplica)}
	for _, r := range replicas {
		for v := 0; v < vnodesPerReplica; v++ {
			a.ring = append(a.ring, ringPoint{hash: hash64(r.Name + "#" + strconv.Itoa(v)), rep: r})
		}
	}
	// Sort by hash; break (astronomically unlikely) collisions by
	// replica index so the ring order is fully deterministic.
	sort.Slice(a.ring, func(i, j int) bool {
		if a.ring[i].hash != a.ring[j].hash {
			return a.ring[i].hash < a.ring[j].hash
		}
		return a.ring[i].rep.idx < a.ring[j].rep.idx
	})
	return a
}

func (a *affinity) Policy() string { return PolicyCacheAffinity }

func (a *affinity) Pick(rc RouteContext, candidates []*Replica) *Replica {
	allowed := make(map[*Replica]bool, len(candidates))
	for _, r := range candidates {
		allowed[r] = true
	}
	h := hash64(rc.RunID)
	// First ring point at or clockwise of h.
	start := sort.Search(len(a.ring), func(i int) bool { return a.ring[i].hash >= h })
	for i := 0; i < len(a.ring); i++ {
		p := a.ring[(start+i)%len(a.ring)]
		if allowed[p.rep] {
			return p.rep
		}
	}
	// Unreachable: candidates is non-empty and every candidate owns
	// ring points.
	return candidates[0]
}

// hash64 is FNV-1a over s — stable across processes and Go versions,
// unlike maphash.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
