package bench

import (
	"context"
	"strings"
	"testing"

	"piumagcn/internal/piuma"
	"piumagcn/internal/piuma/kernels"
)

func TestExtDegradedReport(t *testing.T) {
	e, err := ByID("ext-degraded")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"Degraded-mode", "severity", "slowdown", "Slowdown vs fault severity", "seed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Full severity must actually hurt: the table's last row carries a
	// slowdown strictly above 1x.
	if !strings.Contains(out, "1.00x") {
		t.Fatalf("missing healthy 1.00x baseline row:\n%s", out)
	}
	if !strings.Contains(out, "full-severity faults slow the DMA kernel") {
		t.Fatalf("missing slowdown note:\n%s", out)
	}
}

func TestExtDegradedHonorsCustomSpec(t *testing.T) {
	e, err := ByID("ext-degraded")
	if err != nil {
		t.Fatal(err)
	}
	o := QuickOptions()
	o.Faults = "seed=3,net-delay=4"
	rep, err := e.Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if out := rep.String(); !strings.Contains(out, `spec "seed=3,net-delay=4"`) {
		t.Fatalf("custom spec not reflected in report:\n%s", out)
	}
	o.Faults = "bogus"
	if _, err := e.Run(context.Background(), o); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}

// TestExtDegradedResumesFromCheckpoint: a second run against the same
// checkpoint must reuse every sweep point and produce the same report.
func TestExtDegradedResumesFromCheckpoint(t *testing.T) {
	e, err := ByID("ext-degraded")
	if err != nil {
		t.Fatal(err)
	}
	cp := NewCheckpoint()
	ctx := WithCheckpoint(context.Background(), cp)
	o := QuickOptions()
	first, err := e.Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	points := cp.Len()
	if points != len(degradedSeverities(o)) {
		t.Fatalf("checkpointed %d points, want %d", points, len(degradedSeverities(o)))
	}
	if cp.Reused() != 0 {
		t.Fatalf("first run reused %d points", cp.Reused())
	}
	second, err := e.Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Reused() != points {
		t.Fatalf("resume reused %d of %d points", cp.Reused(), points)
	}
	if first.String() != second.String() {
		t.Fatalf("resumed report diverged:\n%s\nvs\n%s", first, second)
	}
}

// TestSweepKernelsCheckpoints: the kernel sweep checkpoints its result
// and skips the simulation on a hit.
func TestSweepKernelsCheckpoints(t *testing.T) {
	g, err := simGraph(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	cp := NewCheckpoint()
	ctx := WithCheckpoint(context.Background(), cp)
	cfg := piuma.DefaultConfig()
	cfg.Cores = 2
	pts := []point{{label: "cp-test", cfg: cfg, kind: kernels.KindDMA, k: 8}}
	a, err := sweepKernels(ctx, g, pts)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Len() != 1 {
		t.Fatalf("Len = %d after one kernel", cp.Len())
	}
	b, err := sweepKernels(ctx, g, pts)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Reused() != 1 {
		t.Fatalf("Reused = %d, want 1", cp.Reused())
	}
	if a[0] != b[0] {
		t.Fatalf("checkpointed result diverged: %+v vs %+v", a[0], b[0])
	}
}
