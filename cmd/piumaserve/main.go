// Command piumaserve exposes the paper's experiment registry as an
// always-on characterization service (see internal/serve): a JSON API
// over a bounded job queue and worker pool with result caching and
// request deduplication.
//
// Usage:
//
//	piumaserve -addr :8080 -workers 4 -queue-depth 32
//
// Then:
//
//	curl localhost:8080/v1/experiments
//	curl -X POST localhost:8080/v1/runs -d '{"experiment":"fig5","options":{"quick":true}}'
//	curl localhost:8080/v1/runs/<id>
//	curl -X POST 'localhost:8080/v1/runs?wait=true' -d '{"experiment":"table1"}'
//	curl localhost:8080/v1/runs/<id>/profile
//	curl localhost:8080/metrics
//
// The /profile endpoint returns a done run's per-component simulation
// utilization breakdown (409 while the run is still queued or running);
// /metrics includes the aggregated simulation counters alongside the
// service's own.
//
// SIGTERM/SIGINT drains gracefully: new submissions get 503, in-flight
// simulations are canceled, and the process exits once the worker pool
// and HTTP listener have stopped (bounded by -shutdown-grace).
//
// With -data-dir the service is crash-safe: run state is journaled to
// <dir>/runs.wal (-fsync always or never), completed sweep points
// are persisted as they land, and a restart — graceful or kill -9 —
// replays the journal: cached reports come back, and runs that were in
// flight are requeued and resume past every persisted point. A corrupt
// journal tail (torn write, bit rot) is quarantined to runs.wal.quarantine
// and the service boots from the valid prefix. Without -data-dir the
// service is fully in-memory, exactly as before.
//
// Behind piumagate (-replica names the replica), the gate's /healthz
// probes and forwarded requests decide whether this replica is live.
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
	"syscall"
	"time"

	"piumagcn/internal/serve"
	"piumagcn/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "simulation worker pool size (0 = half the CPUs)")
		queueDepth = flag.Int("queue-depth", 16, "bounded job queue depth (full queue returns 429)")
		cacheCap   = flag.Int("cache-cap", 128, "completed reports kept for cache hits")
		runTimeout = flag.Duration("run-timeout", 0, "per-run execution bound; expired runs report status \"timeout\" with a partial report (0 = unbounded)")
		grace      = flag.Duration("shutdown-grace", 30*time.Second, "drain deadline after SIGTERM")
		dataDir    = flag.String("data-dir", "", "journal run state here and recover it on restart (empty = in-memory only)")
		fsync      = flag.String("fsync", "always", "journal fsync policy: always or never")
		replica    = flag.String("replica", "", "replica name stamped into the X-Piuma-Replica response header (for piumagate fan-out)")
	)
	flag.Parse()

	var st *store.Store
	if *dataDir != "" {
		policy, err := store.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("piumaserve: %v", err)
		}
		st, err = store.Open(*dataDir, policy)
		if err != nil {
			log.Fatalf("piumaserve: opening data dir: %v", err)
		}
		defer st.Close()
	} else if *fsync != "always" {
		log.Fatalf("piumaserve: -fsync has no effect without -data-dir")
	}

	srv := serve.New(serve.Config{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		CacheCap:   *cacheCap,
		RunTimeout: *runTimeout,
		Store:      st,
		Replica:    *replica,
	})
	if rec := srv.Recovery(); rec.Enabled {
		log.Printf("piumaserve: recovered %d run(s) from %s (%d requeued, %d cached reports, %d skipped; %d records, %d malformed, %d corrupt tail bytes quarantined)",
			rec.RestoredRuns, *dataDir, rec.RequeuedRuns, rec.CachedReports, rec.SkippedRuns,
			rec.Records, rec.Malformed, rec.QuarantinedBytes)
		if rec.QuarantinePath != "" {
			log.Printf("piumaserve: corrupt journal tail preserved at %s", rec.QuarantinePath)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("piumaserve listening on %s (%d experiments)", *addr, len(srv.Experiments()))
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("piumaserve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("piumaserve: draining (grace %v)", *grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "piumaserve: worker pool did not drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "piumaserve: http shutdown: %v\n", err)
	}
	if st != nil {
		sum := srv.DrainSummary()
		log.Printf("piumaserve: drained (%d queued run(s) drained, %d in-flight run(s) preserved for resume, %d record(s) journaled, journal synced at %d bytes)",
			sum.QueuedDrained, sum.PreservedRuns, sum.JournaledRecords, sum.JournalBytes)
	}
	log.Printf("piumaserve: stopped")
}
