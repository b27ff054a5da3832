package gate

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"piumagcn/internal/serve"
)

// Replica is one registered backend. Names are assigned by index
// ("b0", "b1", ...) at registry construction and never change: the
// name set is therefore a closed vocabulary, which is what lets
// Replica.Name serve as a metric label value (the metriclabels
// analyzer sanctions gate.Replica.Name for exactly this reason).
type Replica struct {
	// Name is the registry-assigned replica name ("b0", "b1", ...).
	Name string
	// URL is the backend's base URL.
	URL string

	idx    int
	client *serve.Client

	mu       sync.Mutex
	live     liveness
	inFlight int
}

// Healthy reports whether the replica is reachable (routable).
func (r *Replica) Healthy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live.reachable
}

// InFlight is the number of gate requests currently forwarded to this
// replica (the in-flight gauge and the status JSON report it).
func (r *Replica) InFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inFlight
}

// BreakerState is the replica's circuit state (closed/open/half-open).
func (r *Replica) BreakerState() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live.circuit
}

// Fails is the consecutive-failure count (failed probes and transport
// errors).
func (r *Replica) Fails() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live.probeFails
}

// admits reports whether the replica's circuit would take a submission
// at now, without claiming anything.
func (r *Replica) admits(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live.admits(now)
}

func (r *Replica) addInFlight(d int) {
	r.mu.Lock()
	r.inFlight += d
	r.mu.Unlock()
}

// Registry owns the replica set and applies every liveness change
// through observe. Replica order is fixed at construction (backend list
// order), and every traversal is in that order, so registry behavior is
// deterministic.
type Registry struct {
	replicas []*Replica
	clock    Clock
	metrics  *metrics

	probeTimeout     time.Duration
	interval         time.Duration // base of the backoff schedule
	markDownAfter    int
	breakerThreshold int

	onBreaker func(BreakerTransition)
	btSeq     atomic.Uint64 // circuit-transition sequence
}

// NewRegistry builds the replica set from cfg.Backends. Every replica
// starts healthy with a closed circuit; probes and forwarded requests
// correct that.
func NewRegistry(cfg Config, m *metrics) (*Registry, error) {
	reg := &Registry{
		clock:            cfg.Clock,
		metrics:          m,
		probeTimeout:     cfg.ProbeTimeout,
		interval:         cfg.ProbeInterval,
		markDownAfter:    max(1, cfg.MarkDownAfter),
		breakerThreshold: max(1, cfg.BreakerThreshold),
		onBreaker:        cfg.OnBreaker,
	}
	if reg.interval <= 0 {
		// Probing disabled: the backoff schedule still needs a base.
		reg.interval = time.Second
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for i, u := range cfg.Backends {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("gate: backend %d has an empty URL", i)
		}
		if seen[u] {
			return nil, fmt.Errorf("gate: duplicate backend %s", u)
		}
		seen[u] = true
		client := serve.NewClient(u, cfg.HTTPClient)
		// Probes are single-attempt on purpose: client-side GET retries
		// would hide exactly the flakiness the prober exists to count
		// (MarkDownAfter is the sanctioned damping).
		client.SetRetries(0, 0, cfg.Seed)
		rep := &Replica{
			Name:   "b" + strconv.Itoa(i),
			URL:    u,
			idx:    i,
			client: client,
			live: liveness{
				reachable: true,
				circuit:   BreakerClosed,
				rng:       rand.New(rand.NewSource(cfg.Seed + int64(i) + 1)),
			},
		}
		reg.replicas = append(reg.replicas, rep)
		m.setBackendHealthy(rep.Name, 1)
		m.setBreakerState(rep.Name, breakerStateValue(BreakerClosed))
	}
	return reg, nil
}

// All returns every replica in registration order.
func (reg *Registry) All() []*Replica { return reg.replicas }

// Healthy returns the healthy replicas in registration order.
func (reg *Registry) Healthy() []*Replica {
	out := make([]*Replica, 0, len(reg.replicas))
	for _, r := range reg.replicas {
		if r.Healthy() {
			out = append(out, r)
		}
	}
	return out
}

// ProbeAll probes every replica that is due (its backoff window has
// passed), in registration order. A failing replica is probed ever
// more lazily on the backoff schedule instead of being hammered.
func (reg *Registry) ProbeAll(ctx context.Context) {
	now := reg.clock.Now()
	for _, r := range reg.replicas {
		r.mu.Lock()
		due := !now.Before(r.live.nextProbe)
		r.mu.Unlock()
		if due {
			reg.probe(ctx, r)
		}
	}
}

// probe runs one health check against r and observes the outcome. A
// probe cut short by ctx (Shutdown) is no verdict: it says nothing
// about the replica.
func (reg *Registry) probe(ctx context.Context, r *Replica) {
	pctx, cancel := context.WithTimeout(ctx, reg.probeTimeout)
	err := r.client.Healthz(pctx)
	cancel()
	switch {
	case err == nil:
		reg.observe(r, probeOK)
	case ctx.Err() == nil:
		reg.observe(r, probeFailed)
	}
}

// Status is one replica's introspection snapshot (the /v1/gate/backends
// endpoint and the cluster smoke's assertions).
type Status struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	InFlight int    `json:"in_flight"`
	Fails    int    `json:"fails,omitempty"`
	// Breaker is the replica's circuit state ("closed", "open",
	// "half-open").
	Breaker string `json:"breaker"`
}

// StatusAll snapshots every replica in registration order.
func (reg *Registry) StatusAll() []Status {
	out := make([]Status, 0, len(reg.replicas))
	for _, r := range reg.replicas {
		r.mu.Lock()
		out = append(out, Status{
			Name:     r.Name,
			URL:      r.URL,
			Healthy:  r.live.reachable,
			InFlight: r.inFlight,
			Fails:    r.live.probeFails,
			Breaker:  r.live.circuit,
		})
		r.mu.Unlock()
	}
	return out
}
