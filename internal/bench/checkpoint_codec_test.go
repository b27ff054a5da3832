package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"piumagcn/internal/piuma"
	"piumagcn/internal/piuma/kernels"
	"piumagcn/internal/sim"
)

func sampleResult() kernels.Result {
	return kernels.Result{
		Kernel:  kernels.KindDMA,
		Cfg:     piuma.DefaultConfig(),
		V:       1000,
		E:       5000,
		K:       64,
		Elapsed: 123456 * sim.Nanosecond,
		GFLOPS:  17.25,
		Breakdown: kernels.Breakdown{
			NNZWait: 10 * sim.Nanosecond, Compute: 20 * sim.Nanosecond, Barrier: 5 * sim.Nanosecond,
		},
		AvgSliceUtilization: 0.97,
		DeliveredBytes:      1.5e6,
		AvgNNZLatency:       300 * sim.Nanosecond,
		Events:              424242,
	}
}

// TestCheckpointCodecRoundTrip: a checkpoint holding the kernels value
// types the sweeps store must survive serialize → JSON → restore with the concrete
// values intact, and the serialized form must be deterministic.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	cp := NewCheckpoint()
	res := sampleResult()
	cp.Complete("kernel point", res, "17.2 GFLOPS")
	cp.Complete("walk point", kernels.WalkResult{Walkers: 8, Steps: 100, StepsPerSecond: 1.5e6}, "1.50 Msteps/s")

	points := cp.Points()
	if len(points) != 2 {
		t.Fatalf("Points() = %d entries, want 2", len(points))
	}
	if points[0].Kind != "kernels.Result" || points[1].Kind != "kernels.WalkResult" {
		t.Fatalf("kinds = %q, %q", points[0].Kind, points[1].Kind)
	}

	// Through bytes, as the journal would carry them.
	raw, err := json.Marshal(points)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []Point
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	restored := NewCheckpoint()
	restored.Restore(decoded)

	v, ok := restored.Lookup("kernel point")
	if !ok {
		t.Fatal("restored checkpoint misses the kernel point")
	}
	got, ok := v.(kernels.Result)
	if !ok {
		t.Fatalf("restored value has type %T, want kernels.Result", v)
	}
	if got != res {
		t.Fatalf("restored result drifted:\ngot  %+v\nwant %+v", got, res)
	}
	if restored.Reused() != 1 {
		t.Fatalf("Reused() = %d after one lookup hit", restored.Reused())
	}

	// Determinism: re-encoding the restored checkpoint reproduces the
	// original bytes exactly.
	raw2, err := json.Marshal(restored.Points())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("serialization is not deterministic:\n%s\nvs\n%s", raw, raw2)
	}
}

// TestCheckpointCodecUnregisteredKinds: values of any other type
// degrade to presence-only points — Lookup hits (so sweep resume still
// skips the point) but the value is the raw JSON, so type-asserting
// callers recompute instead of crashing.
func TestCheckpointCodecUnregisteredKinds(t *testing.T) {
	cp := NewCheckpoint()
	cp.Complete("int point", 42, "forty-two")
	cp.Complete("unmarshalable", make(chan int), "channels do not serialize")

	points := cp.Points()
	if points[0].Kind != "json" || string(points[0].Value) != "42" {
		t.Fatalf("int point = %+v", points[0])
	}
	if points[1].Kind != "opaque" || points[1].Value != nil {
		t.Fatalf("unmarshalable point = %+v", points[1])
	}

	restored := NewCheckpoint()
	restored.Restore(points)
	for _, label := range []string{"int point", "unmarshalable"} {
		if _, ok := restored.Lookup(label); !ok {
			t.Fatalf("restored checkpoint misses %q", label)
		}
	}
	v, _ := restored.Lookup("int point")
	if _, isResult := v.(kernels.Result); isResult {
		t.Fatal("degraded point restored as a concrete kernels.Result")
	}
	if restored.PartialReport(Experiment{ID: "x", Title: "x"}) == nil {
		t.Fatal("restored degraded points produce no partial report")
	}
}

// TestCheckpointObserver: every fresh Complete notifies the observer
// with the serialized point, in completion order; restores do not.
func TestCheckpointObserver(t *testing.T) {
	cp := NewCheckpoint()
	var seen []Point
	cp.SetObserver(func(p Point) { seen = append(seen, p) })
	cp.Complete("a", sampleResult(), "first")
	cp.Complete("b", 7, "second")
	cp.Complete("a", sampleResult(), "first again") // overwrite still notifies
	if len(seen) != 3 || seen[0].Label != "a" || seen[1].Label != "b" || seen[2].Summary != "first again" {
		t.Fatalf("observer saw %+v", seen)
	}
	restored := NewCheckpoint()
	restored.SetObserver(func(p Point) { t.Fatalf("Restore notified the observer with %+v", p) })
	restored.Restore(cp.Points())
}

// TestExtDegradedResumeIsByteIdentical is the crash-recovery acceptance
// property at the bench layer, fully deterministic: interrupt an
// ext-degraded sweep after its first point, push the checkpoint through
// its serialized form (as the journal would across a restart), resume —
// the resumed run must reuse the recovered point and render a report
// byte-identical to an uninterrupted run's.
func TestExtDegradedResumeIsByteIdentical(t *testing.T) {
	exp, err := ByID("ext-degraded")
	if err != nil {
		t.Fatal(err)
	}
	o := QuickOptions()

	// Uninterrupted baseline.
	baseline, err := exp.Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel as soon as the first sweep point lands.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cp := NewCheckpoint()
	cp.SetObserver(func(Point) { cancel() })
	if _, err := exp.Run(WithCheckpoint(ctx, cp), o); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if cp.Len() == 0 {
		t.Fatal("interrupted run checkpointed nothing")
	}
	if cp.Len() >= 2 {
		t.Fatalf("cancellation arrived too late to test resume: %d points done", cp.Len())
	}

	// Across the "restart": serialize, decode, restore.
	raw, err := json.Marshal(cp.Points())
	if err != nil {
		t.Fatal(err)
	}
	var points []Point
	if err := json.Unmarshal(raw, &points); err != nil {
		t.Fatal(err)
	}
	resumed := NewCheckpoint()
	resumed.Restore(points)

	got, err := exp.Run(WithCheckpoint(context.Background(), resumed), o)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Reused() == 0 {
		t.Fatal("resumed run reused no recovered checkpoint point")
	}
	if got.String() != baseline.String() {
		t.Fatalf("resumed report differs from the uninterrupted run:\n--- baseline ---\n%s\n--- resumed ---\n%s",
			baseline.String(), got.String())
	}
}
