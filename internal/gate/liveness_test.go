package gate

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeReplica is a fake replica whose /healthz answers healthzCode and
// whose POST /v1/runs hangs up without a response, which the gate sees
// as a transport error.
func fakeReplica(t *testing.T, healthzCode int) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(healthzCode)
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
			conn.Close()
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestProbesAndForwardsDecideLiveness: the gate's own probes and
// forwards are what demote a replica. A replica whose /healthz fails
// (a draining piumaserve) is demoted after MarkDownAfter probes, not
// before; a replica that passes every probe stays up; and a forwarded
// submission dying on the wire demotes at once without touching the
// circuit, because a transport error is not a 5xx.
func TestProbesAndForwardsDecideLiveness(t *testing.T) {
	clock := newFixedClock()
	draining := fakeReplica(t, http.StatusServiceUnavailable)
	cut := fakeReplica(t, http.StatusOK)
	g := mustGate(t, Config{
		Backends:      []string{draining.URL, cut.URL},
		Policy:        PolicyRoundRobin,
		Seed:          1,
		ProbeInterval: -1,
		MarkDownAfter: 2,
		Clock:         clock,
	})
	ctx := context.Background()
	b0, b1 := g.Registry().All()[0], g.Registry().All()[1]

	for i := 1; i <= 6; i++ {
		g.ProbeAll(ctx)
		if up := b0.Healthy(); up != (i < 2) {
			t.Fatalf("after %d failed probes: healthy=%v fails=%d, want healthy=%v",
				i, up, b0.Fails(), i < 2)
		}
		clock.Advance(time.Minute) // past any probe backoff
	}
	if !b1.Healthy() {
		t.Fatal("b1 passed every probe but is down")
	}

	// b1's submission dies on the wire: demoted at once, breaker closed.
	if rec := postRun(t, g.Handler(), submitBody(1), nil); rec.Code != http.StatusBadGateway {
		t.Fatalf("submit to a hung-up replica: status %d: %s", rec.Code, rec.Body.String())
	}
	if b1.Healthy() {
		t.Fatal("a transport error must demote at once")
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
