package gate

import (
	"fmt"
	"strings"
	"testing"
)

// testReplicas builds an n-replica registry without touching the
// network (routers never dial; they only look at names).
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

// TestAffinityConsistency is the consistent-hashing property: removing
// one replica from the candidate set only moves the keys that replica
// owned — every other key keeps its backend.
func TestAffinityConsistency(t *testing.T) {
	reps := testReplicas(t, 3)
	r, err := NewRouter(PolicyCacheAffinity, reps)
	if err != nil {
		t.Fatal(err)
	}
	full := map[string]*Replica{}
	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("r-%04x", i*7919)
		rep := r.Pick(RouteContext{RunID: key}, reps)
		full[key] = rep
		counts[rep.Name]++
	}
	// 128 vnodes per replica keeps the split non-degenerate.
	for name, c := range counts {
		if c < 20 {
			t.Errorf("replica %s owns only %d/200 keys — ring badly imbalanced", name, c)
		}
	}
	// Drop b1: its keys must redistribute, everyone else's must not move.
	without := []*Replica{reps[0], reps[2]}
	moved := 0
	for key, prev := range full {
		got := r.Pick(RouteContext{RunID: key}, without)
		if prev == reps[1] {
			moved++
			continue
		}
		if got != prev {
			t.Fatalf("key %s moved from %s to %s though %s is still healthy", key, prev.Name, got.Name, prev.Name)
		}
	}
	if moved == 0 {
		t.Fatal("b1 owned no keys — test is vacuous")
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := NewRouter("random", nil); err == nil {
		t.Fatal("unknown policy should error")
	}
	if _, err := New(Config{Backends: []string{"http://127.0.0.1:1"}, Policy: "random", ProbeInterval: -1}); err == nil {
		t.Fatal("gate.New should reject unknown policy")
	}
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
