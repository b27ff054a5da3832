package gate

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"piumagcn/internal/bench"
	"piumagcn/internal/serve"
)

// testReplicas builds an n-replica registry without touching the
// network (home never dials; it only looks at names).
func testReplicas(t *testing.T, n int) []*Replica {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	reg, err := NewRegistry(Config{Backends: urls, Clock: newFixedClock()}.withDefaults(), newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	return reg.All()
}

// submitRunID is the run ID the gate derives for submitBody(seed).
func submitRunID(t *testing.T, seed int) string {
	t.Helper()
	defaults := bench.DefaultOptions()
	req := submitRequest{Options: &defaults}
	if err := json.Unmarshal([]byte(submitBody(seed)), &req); err != nil {
		t.Fatal(err)
	}
	return serve.RunID(req.Experiment, *req.Options)
}

// homedSeeds returns, for each replica of an n-replica gate, the first
// k submitBody seeds whose run is homed there with every replica up.
// Tests that need a submission to reach a given replica pick its seed
// from here.
func homedSeeds(t *testing.T, n, k int) [][]int {
	t.Helper()
	reps := testReplicas(t, n)
	out := make([][]int, n)
	for seed, found := 0, 0; found < n*k; seed++ {
		i := home(submitRunID(t, seed), reps).idx
		if len(out[i]) < k {
			out[i] = append(out[i], seed)
			found++
		}
	}
	return out
}

// TestHomeBalance: each replica is the home of its fair share of run
// IDs, within 10 %, at every cluster size the gate is run at.
func TestHomeBalance(t *testing.T) {
	const keys = 12000
	ids := make([]string, keys)
	for i := range ids {
		ids[i] = serve.RunID("table1", bench.Options{Quick: true, MaxSimEdges: 1 << 10, Seed: int64(i)})
	}
	for _, n := range []int{2, 3, 4, 8} {
		reps := testReplicas(t, n)
		counts := make([]int, n)
		for _, id := range ids {
			counts[home(id, reps).idx]++
		}
		for i, c := range counts {
			if share := float64(c) * float64(n) / keys; share < 0.9 || share > 1.1 {
				t.Errorf("n=%d: b%d is home to %d/%d run IDs, %.2f× its fair share (want 0.9–1.1×)", n, i, c, keys, share)
			}
		}
	}
}

// TestAffinityConsistency is the rendezvous-hashing property: removing
// one replica from the candidate set only moves the keys that replica
// owned — every other key keeps its backend.
func TestAffinityConsistency(t *testing.T) {
	reps := testReplicas(t, 3)
	full := map[string]*Replica{}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("r-%04x", i*7919)
		full[key] = home(key, reps)
	}
	for _, drop := range reps {
		rest := without(reps, drop)
		moved := 0
		for key, prev := range full {
			got := home(key, rest)
			if prev == drop {
				moved++
				continue
			}
			if got != prev {
				t.Fatalf("key %s moved from %s to %s though %s is still a candidate", key, prev.Name, got.Name, prev.Name)
			}
		}
		if moved == 0 {
			t.Fatalf("%s owned no keys — test is vacuous", drop.Name)
		}
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := New(Config{Backends: []string{"http://127.0.0.1:1"}, Policy: "random", ProbeInterval: -1}); err == nil {
		t.Fatal("gate.New should reject unknown policy")
	}
	if _, err := New(Config{Backends: []string{"http://127.0.0.1:1"}, Policy: "round-robin", ProbeInterval: -1}); err == nil {
		t.Fatal("gate.New should reject the deleted round-robin policy")
	}
	g, err := New(Config{Backends: []string{"http://127.0.0.1:1"}, Policy: PolicyCacheAffinity, ProbeInterval: -1})
	if err != nil {
		t.Fatalf("gate.New should accept %q: %v", PolicyCacheAffinity, err)
	}
	g.Shutdown()
}

func TestRegistryRejectsBadBackends(t *testing.T) {
	if _, err := New(Config{Backends: nil}); err == nil {
		t.Fatal("empty backend list should error")
	}
	if _, err := New(Config{Backends: []string{"http://a", "http://a"}, ProbeInterval: -1}); err == nil {
		t.Fatal("duplicate backends should error")
	}
	if _, err := New(Config{Backends: []string{"  "}, ProbeInterval: -1}); err == nil {
		t.Fatal("blank backend should error")
	}
}

func TestParseBackendStats(t *testing.T) {
	exposition := `# HELP piumaserve_queue_depth d
piumaserve_queue_depth 3
piumaserve_runs_submitted_total 10
piumaserve_runs_completed_total 8
piumaserve_cache_hits_total 5
piumaserve_dedup_hits_total 2
piumaserve_class_requests_total{class="gold"} 99
unrelated_family 7
`
	st, err := parseBackendStats(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	want := backendStats{queueDepth: 3, submitted: 10, completed: 8, cacheHits: 5, dedupHits: 2}
	if st != want {
		t.Fatalf("got %+v, want %+v", st, want)
	}
}
