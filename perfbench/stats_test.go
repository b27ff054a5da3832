package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{n: 999, q: 0.99},
		{n: 1000, q: 0.99, ok: true, want: 990},
		{n: 99, q: 0.90},
		{n: 100, q: 0.90, ok: true, want: 90},
		{n: 109, q: 0.90, ok: true, want: 99},
		{n: 0, q: 0.90},
	} {
		got, ok := tail(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tail(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestDigestIsStableAndOrderFree(t *testing.T) {
	a := [][]byte{[]byte(`p1|{"GFLOPS":1.5}`), []byte(`p2|{"GFLOPS":2}`)}
	b := [][]byte{a[1], a[0]}
	if digest(a) != digest(b) {
		t.Error("digest depends on record order")
	}
	if digest(a) != digest([][]byte{[]byte(`p1|{"GFLOPS":1.5}`), []byte(`p2|{"GFLOPS":2}`)}) {
		t.Error("digest differs for equal records")
	}
	if digest(a) == digest([][]byte{[]byte(`p1|{"GFLOPS":1.5}`), []byte(`p2|{"GFLOPS":2.0000001}`)}) {
		t.Error("digest misses a changed result")
	}
	// Pinned so an accidental change to the hash shows.
	if got, want := digest(a), "9c6a93e9579078a2e8703c3e"; got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

func TestSelfTimesSubtractsContainedChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parents := []span{
		{Key: "a", Start: at(0), End: at(10)},
		{Key: "b", Start: at(2), End: at(12)},
		// Two concurrent requests for one key: each child is charged once.
		{Key: "c", Start: at(20), End: at(40)},
		{Key: "c", Start: at(25), End: at(45)},
		{Key: "d", Start: at(50), End: at(60)},
	}
	children := []span{
		{Key: "a", Start: at(1), End: at(4)},
		{Key: "a", Start: at(3), End: at(6)}, // overlaps the first: union 1..6
		{Key: "b", Start: at(0), End: at(5)}, // starts before its parent: not charged
		{Key: "c", Start: at(30), End: at(35)},
		{Key: "c", Start: at(21), End: at(24)},
		{Key: "x", Start: at(51), End: at(52)}, // other key
	}
	want := []time.Duration{5, 10, 17, 15, 10}
	got := selfTimes(parents, children)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self[%d] = %v, want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric catalogue here in step
// with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", what, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, here %v", what, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
}
