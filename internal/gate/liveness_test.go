package gate

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"piumagcn/internal/gossip"
)

// gossipReplica is a fake replica whose gossip agent, named name,
// always answers /v1/gossip. /healthz answers healthzCode, and POST
// /v1/runs hangs up without a response, which the gate sees as a
// transport error.
func gossipReplica(t *testing.T, name string, clock *fixedClock, healthzCode int) *httptest.Server {
	t.Helper()
	node, err := gossip.NewNode(gossip.Config{
		Name:      name,
		Peers:     []gossip.Peer{{Name: gateNodeName, Addr: "http://127.0.0.1:1"}},
		Transport: &gossip.HTTPTransport{},
		Clock:     clock,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(healthzCode)
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
			conn.Close()
		}
	})
	mux.Handle("POST "+gossip.GossipPath, gossip.Handler(node))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestGossipDoesNotUndoDemotion: gossip can demote a replica but never
// promote one. A draining replica keeps its gossip agent answering
// while its /healthz fails, so a gossip "alive" must not reset the
// probe streak: MarkDownAfter failed probes demote it even with a
// gossip round between every probe. Likewise a transport-error
// demotion survives the next gossip round.
func TestGossipDoesNotUndoDemotion(t *testing.T) {
	clock := newFixedClock()
	draining := gossipReplica(t, "b0", clock, http.StatusServiceUnavailable)
	cut := gossipReplica(t, "b1", clock, http.StatusOK)
	g := mustGate(t, Config{
		Backends:       []string{draining.URL, cut.URL},
		Policy:         PolicyRoundRobin,
		Seed:           1,
		ProbeInterval:  -1,
		GossipInterval: -1,
		MarkDownAfter:  2,
		Clock:          clock,
	})
	ctx := context.Background()
	b0, b1 := g.Registry().All()[0], g.Registry().All()[1]

	for i := 1; i <= 6; i++ {
		g.ProbeAll(ctx)
		g.GossipTick(ctx)
		if up := b0.Healthy(); up != (i < 2) {
			t.Fatalf("after %d failed probes with gossip between them: healthy=%v fails=%d, want healthy=%v",
				i, up, b0.Fails(), i < 2)
		}
		clock.Advance(time.Minute) // past any probe backoff
	}
	if !b1.Healthy() {
		t.Fatal("b1 passed every probe but is down")
	}

	// b1's submission dies on the wire: demoted at once, and the next
	// gossip round (b1's agent still answers) leaves it down.
	if rec := postRun(t, g.Handler(), submitBody(1), nil); rec.Code != http.StatusBadGateway {
		t.Fatalf("submit to a hung-up replica: status %d: %s", rec.Code, rec.Body.String())
	}
	if b1.Healthy() {
		t.Fatal("a transport error must demote at once")
	}
	for i := 0; i < 3; i++ {
		g.GossipTick(ctx)
		if b1.Healthy() {
			t.Fatalf("gossip round %d promoted b1 after its transport-error demotion", i)
		}
	}
	if st := b1.BreakerState(); st != BreakerClosed {
		t.Fatalf("b1 breaker = %q, want closed (a transport error is not a 5xx)", st)
	}
}

// TestCanceledProbeIsNoVerdict: a probe cut short by a canceled context
// (Shutdown) says nothing about the replica. It must not count a
// failure, schedule a backoff or bump the probe-failure counter.
func TestCanceledProbeIsNoVerdict(t *testing.T) {
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	g := mustGate(t, Config{
		Backends:      []string{ts.URL},
		Seed:          1,
		ProbeInterval: -1,
		Clock:         newFixedClock(),
	})
	rep := g.Registry().All()[0]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g.ProbeAll(ctx)
	if !rep.Healthy() || rep.Fails() != 0 {
		t.Fatalf("canceled probe judged the replica: healthy=%v fails=%d", rep.Healthy(), rep.Fails())
	}
	if m := metricsBody(t, g.Handler()); strings.Contains(m, `piumagate_backend_probe_failures_total{backend="b0"} 1`) {
		t.Fatalf("canceled probe counted as a probe failure:\n%s", m)
	}
	// No backoff was scheduled: a live probe at the same instant runs.
	before := hits.Load()
	g.ProbeAll(context.Background())
	if hits.Load() != before+1 {
		t.Fatalf("healthz hits %d → %d: the canceled probe left a backoff behind", before, hits.Load())
	}
}
