package bench

import (
	"bytes"
	"context"
	"testing"

	"piumagcn/internal/obs"
)

// TestExtDegradedCrossRunDeterminism locks in the reproducibility
// contract the detertaint analyzer (internal/lint) enforces
// statically: two runs of the same seeded fault-injection sweep in the
// same process must produce byte-identical reports AND byte-identical
// Chrome traces. A diff here means wall-clock time, global rand state
// or map iteration order leaked into an output path — including
// through control flow alone, which detertaint does not track.
func TestExtDegradedCrossRunDeterminism(t *testing.T) {
	e, err := ByID("ext-degraded")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, []byte) {
		prof := obs.NewProfiler(obs.ProfilerOptions{})
		ctx := obs.NewContext(context.Background(), prof)
		rep, err := e.Run(ctx, QuickOptions())
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if err := prof.WriteChromeTrace(&trace); err != nil {
			t.Fatal(err)
		}
		return rep.String(), trace.Bytes()
	}

	rep1, trace1 := run()
	rep2, trace2 := run()

	if rep1 != rep2 {
		t.Errorf("reports differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", rep1, rep2)
	}
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("Chrome traces differ between identical runs (%d vs %d bytes)", len(trace1), len(trace2))
	}
	if len(trace1) == 0 || !bytes.Contains(trace1, []byte("traceEvents")) {
		t.Fatalf("trace export is empty or malformed: %q", trace1[:min(len(trace1), 80)])
	}
}
