// Package gate is the cluster front door for multi-replica serving: a
// sharded, policy-routed HTTP proxy that fans out to N piumaserve
// replicas while exposing the exact same /v1/* API, so piumaload,
// serve.Client and every existing tool work unchanged against a
// cluster.
//
// The moving parts:
//
//	Registry  — the replica set and one liveness record per replica:
//	            health probes and forwarded requests both change it
//	            through one transition function (observe). Failed
//	            probes and transport errors demote; only a passing
//	            probe or an answered submission promotes. The open
//	            circuit's cooldown follows the probe backoff.
//	Router    — pluggable routing policies behind one interface:
//	            round-robin (pure function of the request sequence)
//	            and cache-affinity (consistent hashing of the
//	            content-addressed RunID, so repeat submissions of the
//	            same options land on the replica that already holds
//	            the cached result).
//	Admission — token-bucket rate limiting plus per-SLO-class quotas
//	            keyed on the X-SLO-Class header; over-quota requests
//	            get 429 with Retry-After before any backend sees them.
//	Failover  — a submission whose backend dies mid-flight is
//	            resubmitted to the next healthy replica. This is safe
//	            because run IDs are content addresses and runs are
//	            checkpointed and journaled server-side: the worst case
//	            is a dedup hit, never a duplicate simulation.
//
// Routing decisions are a pure function of (seed, request sequence)
// under an injected Clock, so a simulated cluster routes byte-
// identically across runs — the same determinism contract the rest of
// the repo holds.
package gate

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"piumagcn/internal/serve"
	"piumagcn/internal/store"
)

// Clock abstracts wall time so admission control, probe scheduling and
// latency accounting are deterministic in tests. The default is the
// wall clock.
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Decision records one routing choice. The sequence of decisions is
// the gate's determinism contract: under an injected clock and fixed
// seed, identical request sequences produce identical decision
// streams.
type Decision struct {
	// Seq is the gate-assigned submission sequence number.
	Seq uint64 `json:"seq"`
	// RunID is the content address the request routed on.
	RunID string `json:"run_id"`
	// Policy is the routing policy that made the pick.
	Policy string `json:"policy"`
	// Backend is the chosen replica's name.
	Backend string `json:"backend"`
	// Attempt is 0 for the first pick; >0 marks a failover re-pick
	// after a backend died mid-request.
	Attempt int `json:"attempt"`
}

// Config tunes the gate. Backends is required; everything else has a
// sensible default.
type Config struct {
	// Backends is the replica base URL list, e.g.
	// ["http://127.0.0.1:8081", "http://127.0.0.1:8082"]. Replica
	// names are assigned by index ("b0", "b1", ...), which is what
	// bounds the per-backend metric label vocabulary.
	Backends []string
	// Policy selects the router: PolicyRoundRobin (default) or
	// PolicyCacheAffinity.
	Policy string
	// Seed drives the backoff jitter of probes and circuit cooldowns.
	// Routing itself consumes no randomness; the seed exists so the full
	// gate process — probing included — is reproducible.
	Seed int64
	// ProbeInterval is the health-probe period (default 1s; negative
	// disables the background probe loop — health then changes only
	// through forwarded requests and explicit ProbeAll calls,
	// which is what deterministic tests use). It is also the base of the
	// backoff schedule: a failing replica's next probe and an open
	// circuit's cooldown both start at one interval and double per
	// consecutive failure, capped at 30s, with seeded jitter on the
	// upper half. With probing disabled the base is 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// MarkDownAfter is how many consecutive probe failures demote a
	// replica to unhealthy (default 2) — hysteresis so one probe lost to
	// a latency spike does not flap routing or move consistent-hash
	// keys. A forwarded request dying on the wire demotes at once. Only
	// a passing probe or a submission answered below 500 promotes.
	MarkDownAfter int
	// BreakerThreshold is how many consecutive 5xx submit responses open
	// a backend's circuit (default 3). The open circuit's cooldown
	// follows the backoff schedule (see ProbeInterval), counted in
	// consecutive 5xx.
	BreakerThreshold int
	// Rate is the global admission rate in requests/second (0 = no
	// global limit). Burst is the token-bucket depth (default
	// max(1, Rate)).
	Rate  float64
	Burst float64
	// ClassQuotas are per-SLO-class admission rates in requests/second,
	// keyed by workload class ("gold", "silver", "bronze", "batch");
	// classes without an entry are bounded only by Rate. The quota
	// buckets use the same Burst default.
	ClassQuotas map[string]float64
	// HTTPClient is the fan-out transport (nil = serve.DefaultHTTPClient,
	// which bounds dial, TLS and response-header waits).
	HTTPClient *http.Client
	// Clock injects virtual time (nil = wall clock).
	Clock Clock
	// OnDecision, when non-nil, observes every routing decision
	// synchronously in submission order. Tests use it to assert the
	// determinism contract.
	OnDecision func(Decision)
	// OnBreaker, when non-nil, observes every circuit-breaker
	// transition synchronously in occurrence order — the breaker half
	// of the determinism contract.
	OnBreaker func(BreakerTransition)

	// DataDir, when set, makes run acceptance durable: every admitted
	// run is journaled to <DataDir>/intake.wal before any backend sees
	// it, replayed on gate boot (restoring both run ownership and the
	// admission buckets' fill levels), and compacted away once a
	// terminal status is observed. Empty keeps the gate stateless.
	DataDir string
	// LedgerSync is the intake ledger's fsync policy (default
	// store.SyncAlways: an admitted run acknowledged is a run on disk).
	LedgerSync store.SyncPolicy
	// ReconcileInterval drives the anti-entropy reconciler when a
	// ledger exists: positive runs the background sweep at this period,
	// negative leaves sweeping to explicit ReconcileOnce calls, zero
	// defaults to 5s. Ignored without DataDir.
	ReconcileInterval time.Duration
	// OnReconcile, when non-nil, observes every reconciliation decision
	// synchronously in decision order — the reconciler's determinism
	// contract.
	OnReconcile func(ReconcileDecision)
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = PolicyRoundRobin
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.MarkDownAfter <= 0 {
		c.MarkDownAfter = 2
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.Burst <= 0 && c.Rate > 0 {
		c.Burst = max(1, c.Rate)
	}
	if c.HTTPClient == nil {
		c.HTTPClient = serve.DefaultHTTPClient()
	}
	if c.Clock == nil {
		c.Clock = wallClock{}
	}
	if c.ReconcileInterval == 0 {
		c.ReconcileInterval = 5 * time.Second
	}
	return c
}

// Gate owns the replica registry, the router, admission control and
// the proxy handler.
type Gate struct {
	cfg     Config
	reg     *Registry
	router  Router
	adm     *admission
	metrics *metrics
	clock   Clock
	hc      *http.Client

	// ledger is the durable intake book (nil without DataDir).
	ledger *store.IntakeLedger

	seq   atomic.Uint64
	rcSeq atomic.Uint64 // reconcile-decision sequence

	stop   context.CancelFunc
	wg     sync.WaitGroup
	probed atomic.Bool // whether the background probe loop runs
}

// New validates the configuration and builds the gate. The background
// probe loop starts immediately unless ProbeInterval is negative.
// Replicas start healthy: a backend that is actually down is demoted
// by its first probe or the first forwarded request that fails.
func New(cfg Config) (*Gate, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gate: at least one backend is required")
	}
	// Check the classes in sorted order, so a config with several bad
	// classes always names the same one.
	classes := make([]string, 0, len(cfg.ClassQuotas))
	for class := range cfg.ClassQuotas {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		if !validQuotaClass(class) {
			return nil, fmt.Errorf("gate: unknown quota class %q (valid: gold, silver, bronze, batch)", class)
		}
	}
	m := newMetrics()
	reg, err := NewRegistry(cfg, m)
	if err != nil {
		return nil, err
	}
	router, err := NewRouter(cfg.Policy, reg.All())
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	g := &Gate{
		cfg:     cfg,
		reg:     reg,
		router:  router,
		adm:     newAdmission(cfg),
		metrics: m,
		clock:   cfg.Clock,
		hc:      cfg.HTTPClient,
		stop:    stop,
	}
	if cfg.DataDir != "" {
		ledger, rec, err := store.OpenIntakeLedger(cfg.DataDir, cfg.LedgerSync)
		if err != nil {
			stop()
			return nil, fmt.Errorf("gate: opening intake ledger: %w", err)
		}
		g.ledger = ledger
		// Restart-amnesia fix: re-derive the admission buckets' fill
		// levels from the journaled admission instants, so a gate that
		// crashed right after admitting a burst does not admit the same
		// burst again on boot.
		for _, adm := range rec.Admissions {
			g.adm.replay(adm.Class, time.UnixMilli(adm.AtUnixMs))
		}
		m.setLedgerOpen(float64(ledger.NonTerminalLen()))
	}
	if cfg.ProbeInterval > 0 {
		g.probed.Store(true)
		g.wg.Add(1)
		go g.probeLoop(ctx)
	}
	if g.ledger != nil && cfg.ReconcileInterval > 0 {
		g.wg.Add(1)
		go g.reconcileLoop(ctx)
	}
	return g, nil
}

// Registry exposes the replica set (health introspection, tests).
func (g *Gate) Registry() *Registry { return g.reg }

// Policy is the active routing policy name.
func (g *Gate) Policy() string { return g.router.Policy() }

// ProbeAll probes every replica that is due (synchronously, in index
// order). The background loop calls this on its ticker; tests call it
// directly for deterministic health transitions.
func (g *Gate) ProbeAll(ctx context.Context) { g.reg.ProbeAll(ctx) }

// probeLoop drives active health probing until Shutdown.
func (g *Gate) probeLoop(ctx context.Context) {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.reg.ProbeAll(ctx)
		}
	}
}

// reconcileLoop drives anti-entropy sweeps until Shutdown.
func (g *Gate) reconcileLoop(ctx context.Context) {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.ReconcileInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.ReconcileOnce(ctx)
		}
	}
}

// Ledger exposes the intake ledger (nil without DataDir) for
// introspection and tests.
func (g *Gate) Ledger() *store.IntakeLedger { return g.ledger }

// ledgerRouted journals a run's (re-)routing to a backend. Append
// failures are counted, not fatal: the run stays replayable from its
// admitted record, it merely loses the ownership hint.
func (g *Gate) ledgerRouted(runID, backend string) {
	if g.ledger == nil {
		return
	}
	if err := g.ledger.Routed(runID, backend); err != nil {
		g.metrics.incLedgerError()
	}
}

// ledgerRejected settles a run no backend accepted as terminal, so the
// reconciler does not resurrect a submission the client saw fail.
func (g *Gate) ledgerRejected(runID string) {
	if g.ledger == nil {
		return
	}
	if _, err := g.ledger.Terminal(runID, "rejected"); err != nil {
		g.metrics.incLedgerError()
	}
}

func (g *Gate) closeLedger() {
	if g.ledger == nil {
		return
	}
	//lint:ignore erriswritten a close failure at shutdown has no caller to inform; the journal was synced on every append
	g.ledger.Close()
}

// Shutdown stops the probe and reconcile loops and closes the
// intake ledger. In-flight proxied requests are not interrupted — the
// HTTP server draining them is the caller's job.
func (g *Gate) Shutdown() {
	g.stop()
	g.wg.Wait()
	g.closeLedger()
}
