// Command piumagate is the cluster front door for multi-replica
// serving (see internal/gate): an HTTP proxy exposing the same /v1/*
// API as piumaserve while fanning out to N replicas behind a pluggable
// routing policy, with active health probing, token-bucket admission
// control, per-SLO-class quotas and mid-flight failover.
//
// Usage:
//
//	piumaserve -addr :8081 -replica b0 &
//	piumaserve -addr :8082 -replica b1 &
//	piumagate -addr :8080 \
//	    -backends http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	    -policy cache-affinity -rate 200 -quota gold=100 -quota batch=10
//
// Then every existing client works unchanged against the cluster:
//
//	curl localhost:8080/v1/experiments
//	curl -X POST localhost:8080/v1/runs -H 'X-SLO-Class: gold' \
//	    -d '{"experiment":"fig5","options":{"quick":true}}'
//	curl localhost:8080/v1/gate/backends
//	curl localhost:8080/metrics
//
// Routing policies (-policy): round-robin, cache-affinity.
// Cache-affinity consistent-hashes the
// content-addressed RunID so repeat submissions land on the replica
// that already caches the result.
//
// A backend that dies mid-request is marked down and the submission is
// resubmitted to the next healthy replica — safe because RunIDs are
// content addresses and runs are journaled server-side, so the worst
// case is a dedup or cache hit, never a duplicate simulation.
//
// Liveness: -markdown-after consecutive failed probes, or a forwarded
// request dying on the wire, demotes a replica. Only a passing probe or
// a submission it answers promotes it again. -breaker-threshold
// consecutive 5xx submit responses open its circuit; the cooldown
// before the half-open trial follows the probe backoff
// (-probe-interval, doubling per consecutive failure, capped at 30s,
// seeded jitter).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"piumagcn/internal/chaos"
	"piumagcn/internal/gate"
	"piumagcn/internal/serve"
	"piumagcn/internal/store"
)

// quotaFlag accumulates repeated -quota class=rate flags.
type quotaFlag map[string]float64

func (q quotaFlag) String() string {
	parts := make([]string, 0, len(q))
	for class, rate := range q {
		parts = append(parts, fmt.Sprintf("%s=%g", class, rate))
	}
	return strings.Join(parts, ",")
}

func (q quotaFlag) Set(v string) error {
	class, rateStr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want class=rate, got %q", v)
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || rate <= 0 {
		return fmt.Errorf("quota rate must be a positive number, got %q", rateStr)
	}
	q[strings.TrimSpace(class)] = rate
	return nil
}

func main() {
	quotas := quotaFlag{}
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		backends      = flag.String("backends", "", "comma-separated replica base URLs (required)")
		policy        = flag.String("policy", gate.PolicyRoundRobin, "routing policy: "+strings.Join(gate.Policies(), ", "))
		rate          = flag.Float64("rate", 0, "global admission rate in runs/second (0 = unlimited)")
		burst         = flag.Float64("burst", 0, "admission token-bucket depth (0 = max(1, rate))")
		probeInterval = flag.Duration("probe-interval", time.Second, "health-probe period (negative disables active probing)")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "per-probe deadline")
		seed          = flag.Int64("seed", 1, "seed for probe-backoff and circuit-cooldown jitter (reproducibility)")
		grace         = flag.Duration("shutdown-grace", 30*time.Second, "drain deadline after SIGTERM")
		markDown      = flag.Int("markdown-after", 2, "consecutive probe failures before a replica is marked unhealthy")
		brkThreshold  = flag.Int("breaker-threshold", 3, "consecutive 5xx submit responses that open a backend's circuit (its cooldown follows the probe backoff)")
		chaosSpec     = flag.String("chaos", "", "client-side chaos schedule applied to the fan-out transport (chaos.Spec, e.g. 'seed=7;fault=reset,target=b1,at=2s,for=3s')")
		dataDir       = flag.String("data-dir", "", "journal admitted runs to <dir>/intake.wal and recover ownership on restart (empty = stateless gate)")
		fsync         = flag.String("fsync", "always", "intake-ledger fsync policy: always or never")
		reconcile     = flag.Duration("reconcile-interval", 5*time.Second, "anti-entropy sweep period over the intake ledger (requires -data-dir)")
	)
	flag.Var(quotas, "quota", "per-class admission quota as class=rate (repeatable; classes: gold, silver, bronze, batch)")
	flag.Parse()

	if *backends == "" {
		log.Fatalf("piumagate: -backends is required (comma-separated replica URLs)")
	}
	urls := strings.Split(*backends, ",")

	// -chaos wraps the gate's fan-out transport in the deterministic
	// fault injector, so the whole resilience stack (mark-down,
	// breakers, failover) can be exercised against a scheduled outage
	// without touching the replicas.
	var hc *http.Client
	if *chaosSpec != "" {
		spec, err := chaos.Parse(*chaosSpec)
		if err != nil {
			log.Fatalf("piumagate: -chaos: %v", err)
		}
		inj := chaos.New(spec, nil)
		hc = chaos.WrapClient(serve.DefaultHTTPClient(), inj, chaos.Targets(urls))
		log.Printf("piumagate: chaos schedule active: %s", spec.String())
	}

	var ledgerSync store.SyncPolicy
	if *dataDir != "" {
		var err error
		ledgerSync, err = store.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("piumagate: %v", err)
		}
	} else if *fsync != "always" {
		log.Fatalf("piumagate: -fsync has no effect without -data-dir")
	}

	g, err := gate.New(gate.Config{
		Backends:          urls,
		Policy:            *policy,
		Seed:              *seed,
		ProbeInterval:     *probeInterval,
		ProbeTimeout:      *probeTimeout,
		MarkDownAfter:     *markDown,
		BreakerThreshold:  *brkThreshold,
		Rate:              *rate,
		Burst:             *burst,
		ClassQuotas:       quotas,
		HTTPClient:        hc,
		DataDir:           *dataDir,
		LedgerSync:        ledgerSync,
		ReconcileInterval: *reconcile,
	})
	if err != nil {
		log.Fatalf("piumagate: %v", err)
	}
	if *dataDir != "" {
		log.Printf("piumagate: intake ledger at %s (%d open run(s) recovered)",
			*dataDir, g.Ledger().NonTerminalLen())
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           g.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("piumagate listening on %s (%d backend(s), policy %s)",
			*addr, len(g.Registry().All()), g.Policy())
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("piumagate: %v", err)
	case <-ctx.Done():
	}

	log.Printf("piumagate: draining (grace %v)", *grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "piumagate: http shutdown: %v\n", err)
	}
	g.Shutdown()
	log.Printf("piumagate: stopped")
}
