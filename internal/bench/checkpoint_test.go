package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNilCheckpointIsNoOp(t *testing.T) {
	var cp *Checkpoint
	if _, ok := cp.Lookup("x"); ok {
		t.Fatal("nil checkpoint reported a hit")
	}
	cp.Complete("x", 1, "one")
	if cp.Len() != 0 || cp.Reused() != 0 {
		t.Fatal("nil checkpoint accumulated state")
	}
	if r := cp.PartialReport(Experiment{ID: "e"}); r != nil {
		t.Fatal("nil checkpoint rendered a report")
	}
	if CheckpointFrom(context.Background()) != nil {
		t.Fatal("bare context carries a checkpoint")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := NewCheckpoint()
	ctx := WithCheckpoint(context.Background(), cp)
	if got := CheckpointFrom(ctx); got != cp {
		t.Fatal("checkpoint lost in context round trip")
	}
	cp.Complete("a", 41, "first")
	cp.Complete("b", 42, "second")
	cp.Complete("a", 43, "first again") // overwrite keeps position
	if cp.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cp.Len())
	}
	v, ok := cp.Lookup("a")
	if !ok || v.(int) != 43 {
		t.Fatalf("Lookup(a) = %v, %v", v, ok)
	}
	if _, ok := cp.Lookup("missing"); ok {
		t.Fatal("hit on missing label")
	}
	if cp.Reused() != 1 {
		t.Fatalf("Reused = %d, want 1 (misses must not count)", cp.Reused())
	}
}

func TestCheckpointPartialReport(t *testing.T) {
	cp := NewCheckpoint()
	e := Experiment{ID: "fig5", Title: "SpMM kernels"}
	if r := cp.PartialReport(e); r != nil {
		t.Fatal("empty checkpoint rendered a report")
	}
	cp.Complete("point-1", nil, "10.0 GFLOPS")
	cp.Complete("point-2", nil, "9.0 GFLOPS")
	cp.Lookup("point-1")
	r := cp.PartialReport(e)
	if r == nil {
		t.Fatal("no partial report")
	}
	if r.ID != "fig5" || !strings.Contains(r.Title, "(partial)") {
		t.Fatalf("report identity: %q / %q", r.ID, r.Title)
	}
	out := r.String()
	for _, want := range []string{"point-1: 10.0 GFLOPS", "point-2: 9.0 GFLOPS", "interrupted", "reused"} {
		if !strings.Contains(out, want) {
			t.Fatalf("partial report missing %q:\n%s", want, out)
		}
	}
	// Order is completion order, not lexical.
	if i1, i2 := strings.Index(out, "point-1"), strings.Index(out, "point-2"); i1 > i2 {
		t.Fatal("points listed out of completion order")
	}
}

func TestCheckpointConcurrentAccess(t *testing.T) {
	cp := NewCheckpoint()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				label := fmt.Sprintf("p%d", j%10)
				cp.Complete(label, j, "x")
				cp.Lookup(label)
			}
		}(i)
	}
	wg.Wait()
	if cp.Len() != 10 {
		t.Fatalf("Len = %d, want 10", cp.Len())
	}
}
