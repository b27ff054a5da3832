package kernels

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"testing"

	"piumagcn/internal/faults"
	"piumagcn/internal/graph"
	"piumagcn/internal/piuma"
	"piumagcn/internal/rmat"
	"piumagcn/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current kernels")

const goldenPath = "testdata/golden.json"

// goldenCase is one recorded simulation: the result as JSON and the
// SHA-256 of every tracer callback the run made, in order.
type goldenCase struct {
	Name   string          `json:"name"`
	Result json.RawMessage `json:"result"`
	Trace  string          `json:"trace_sha256"`
}

// TestGoldenCorpus replays the loop-unrolled kernel and the random walk
// over a grid of machine shapes, healthy and fault-injected, and
// requires the results and tracer streams recorded in
// testdata/golden.json. The corpus was recorded from the coroutine
// implementation of both programs, so it pins their step-function form
// to it event for event. Rerun with -update-golden only for a change
// that is meant to alter simulated behaviour.
func TestGoldenCorpus(t *testing.T) {
	got := goldenRuns(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name {
			t.Fatalf("case %d is %s, golden file has %s", i, g.Name, w.Name)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, w.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Result, compact.Bytes()) {
			t.Errorf("%s: result\n%s\nwant\n%s", g.Name, g.Result, compact.Bytes())
		}
		if g.Trace != w.Trace {
			t.Errorf("%s: tracer stream hash %s, want %s", g.Name, g.Trace, w.Trace)
		}
	}
}

func goldenRuns(t *testing.T) []goldenCase {
	t.Helper()
	g, err := rmat.GenerateCSR(rmat.PowerLaw(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	for _, cores := range []int{1, 2, 8, 32} {
		for _, k := range []int{1, 16, 256} {
			for _, threads := range []int{1, 4, 16} {
				cfg := piuma.DefaultConfig()
				cfg.Cores = cores
				cfg.ThreadsPerMTP = threads
				// Dead cores scale with the machine; a one-core
				// machine keeps its core and sees only the network
				// faults.
				spec := &faults.Spec{Seed: 11, DeadCores: cores / 2, NetDelayFactor: 2, LossRate: 0.05}
				for _, fs := range []*faults.Spec{nil, spec} {
					name := fmt.Sprintf("loop c=%d K=%d t=%d faulty=%v", cores, k, threads, fs != nil)
					cases = append(cases, goldenKernel(t, name, cfg, fs, g, k))
				}
			}
		}
	}
	for _, shape := range []struct{ cores, threads, steps int }{{1, 1, 64}, {4, 4, 16}, {32, 16, 3}} {
		cfg := piuma.DefaultConfig()
		cfg.Cores = shape.cores
		cfg.ThreadsPerMTP = shape.threads
		name := fmt.Sprintf("walk c=%d t=%d steps=%d", shape.cores, shape.threads, shape.steps)
		cases = append(cases, goldenWalk(t, name, cfg, g, shape.steps))
	}
	return cases
}

// goldenKernel runs one loop-unrolled case untraced and traced; the two
// results must agree, and the traced run supplies the stream hash.
func goldenKernel(t *testing.T, name string, cfg piuma.Config, fs *faults.Spec, g *graph.CSR, k int) goldenCase {
	t.Helper()
	plain, err := RunFaulty(KindLoopUnrolled, cfg, fs, g, k, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	tr := newHashTracer()
	traced, err := RunFaulty(KindLoopUnrolled, cfg, fs, g, k, tr)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if traced != plain {
		t.Fatalf("%s: tracing changed the result:\n%+v\nvs\n%+v", name, traced, plain)
	}
	return goldenResult(t, name, plain, tr)
}

func goldenWalk(t *testing.T, name string, cfg piuma.Config, g *graph.CSR, steps int) goldenCase {
	t.Helper()
	plain, err := RunRandomWalk(cfg, g, steps)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	tr := newHashTracer()
	traced, err := RunRandomWalkTraced(cfg, g, steps, tr)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if traced != plain {
		t.Fatalf("%s: tracing changed the result:\n%+v\nvs\n%+v", name, traced, plain)
	}
	return goldenResult(t, name, plain, tr)
}

func goldenResult(t *testing.T, name string, res any, tr *hashTracer) goldenCase {
	t.Helper()
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return goldenCase{Name: name, Result: buf, Trace: hex.EncodeToString(tr.h.Sum(nil))}
}

// hashTracer feeds every callback, tagged by kind, into a SHA-256.
type hashTracer struct {
	h   hash.Hash
	buf []byte
}

func newHashTracer() *hashTracer { return &hashTracer{h: sha256.New()} }

func (h *hashTracer) record(kind byte, t1, t2 sim.Time, s1, s2 string) {
	b := append(h.buf[:0], kind)
	b = binary.AppendVarint(b, int64(t1))
	b = binary.AppendVarint(b, int64(t2))
	b = append(append(b, s1...), 0)
	b = append(append(b, s2...), 0)
	h.h.Write(b)
	h.buf = b
}

func (h *hashTracer) Event(t sim.Time)                        { h.record('E', t, 0, "", "") }
func (h *hashTracer) Process(t sim.Time, name, kind string)   { h.record('P', t, 0, name, kind) }
func (h *hashTracer) Reserve(res string, start, end sim.Time) { h.record('R', start, end, res, "") }
func (h *hashTracer) Span(track, name string, start, end sim.Time) {
	h.record('S', start, end, track, name)
}
