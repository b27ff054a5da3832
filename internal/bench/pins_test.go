//go:build !race

// The pins replay every simulator sweep, which takes minutes under the
// race detector; the simulation runs on one goroutine, so they are left
// out of race builds (TestExtDegradedCrossRunDeterminism still runs there).

package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"piumagcn/internal/obs"
)

// outputPins are SHA-256 hashes of the QuickOptions report text, with
// and without a profiler in ctx, and of the Chrome trace of every
// simulator experiment. Unlike TestExtDegradedCrossRunDeterminism,
// which compares two runs inside one process, these pins hold across
// commits: a refactor of the simulation engine, the kernels or the
// sweep must leave them unchanged. A change that is meant to alter
// simulated behaviour updates them and says so. TestOutputPins checks
// the untraced reports; TestWorkerCountInvariance checks the traced
// report and trace on its default-worker run.
var outputPins = []struct {
	id, report, trace, untraced string
}{
	{"fig5",
		"523047b12843e388cc73b017973e3a0e83815a9c0859dad3dd61f9a11d22a9bd",
		"79a529bee26c8d9f6426eb1aac15b808dbb6cf43700adcf0c4f0b29f279ed831",
		"f4488efb3ed613555cf2810a869a8b2db6319bcca704b77809e322c1024dd0f6"},
	{"fig6",
		"35328a09f16bff40d46a0cd2b956739a78b6696ca6bf7fdf4de4b5592dcae02f",
		"a5a9c07830d5f65a481d4ef90dda6a05a0cdc5798885b96a20997d3545b79d02",
		"d0f3ae382d5b87da31fee8c9f7c50dc465a0087e270564f6f13ce9257911d1ef"},
	{"fig7",
		"d6488ddc1c8ba4d60ce1f6e5ca6e9a48fb1e7d9a0f3da11edb443362f9873898",
		"fadb91d434fe24d2a180df0669c1f53dc2f524c337a1054590e23df597a7a386",
		"f3d62a9d61445f3cc2d9ff0d59ab4d19ae1271163180aca428b3f3f3495639e8"},
	{"fig8",
		"12530df6d1938f0c03fa2aa839d342009b53b2f61d93f44fb93498df57e9b7d1",
		"98e50862c1d06db36fc7ef482e78bc566b9ad79f5c59745cf5fbe5b283197530",
		"f0703f162a0447021650052d92f7d6dcc54a49ab03243bc2952886ab45001683"},
	{"ext-degraded",
		"07773881f691d643a86b49b87625b4b920bdd4a6ecf4fc597895aece2c1c9cfb",
		"6295ba7870cf727931646ea28320b8fbb9e9f6a67094202b227928b0772b48b6",
		"39edac9a73df955ac7c4f951e9f880931d1717bee2ea58a63ec1b633d78060de"},
	{"ext-vertexpar",
		"ccabbdada9bb1adb018cd2ca4d2a2bab2c61706ed489aaeb6050c242eae97581",
		"f27560568680fecb89a3713c8d349ee18fe1bb421df38a0a4078bee519264246",
		"7f7ab9a547880165ee4732a90ecebab2ccb44281884dc0afe0985a083cb96d2c"},
	{"ext-randomwalk",
		"b19dd1034ee50e104ab431d8947a0b2c90f234ceb21281d845f76c13a8e928f9",
		"d9e1cb98da52aadd058e33dcdd9a8c7063f0dd68dfba7c3fdb527bde31d5a296",
		"5bac4ce70c6aa59c00a01921a019bf514744930d7db6a969685d4013c885dbc3"},
}

// TestOutputPins: with no profiler in ctx, as plain piumabench and
// perfbench run them, the experiments render their pinned reports.
func TestOutputPins(t *testing.T) {
	for _, pin := range outputPins {
		t.Run(pin.id, func(t *testing.T) {
			e, err := ByID(pin.id)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Run(context.Background(), QuickOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex([]byte(rep.String())); got != pin.untraced {
				t.Errorf("untraced report hash = %s, want %s", got, pin.untraced)
			}
		})
	}
}

// TestWorkerCountInvariance: a sweep on the default GOMAXPROCS workers
// renders the pinned report and Chrome trace, and a sweep on one worker
// renders the same report, the same trace and the same checkpoint order
// for every simulator experiment.
func TestWorkerCountInvariance(t *testing.T) {
	type output struct {
		report, trace string
		order         []string
	}
	run := func(t *testing.T, id string) output {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		prof := obs.NewProfiler(obs.ProfilerOptions{})
		cp := NewCheckpoint()
		ctx := WithCheckpoint(obs.NewContext(context.Background(), prof), cp)
		rep, err := e.Run(ctx, QuickOptions())
		if err != nil {
			t.Fatal(err)
		}
		trace := sha256.New()
		if err := prof.WriteChromeTrace(trace); err != nil {
			t.Fatal(err)
		}
		return output{rep.String(), hex.EncodeToString(trace.Sum(nil)), checkpointLabels(cp)}
	}
	for _, pin := range outputPins {
		t.Run(pin.id, func(t *testing.T) {
			parallel := run(t, pin.id)
			if got := sha256Hex([]byte(parallel.report)); got != pin.report {
				t.Errorf("report hash = %s, want %s", got, pin.report)
			}
			if parallel.trace != pin.trace {
				t.Errorf("Chrome trace hash = %s, want %s", parallel.trace, pin.trace)
			}
			setGOMAXPROCS(t, 1)
			serial := run(t, pin.id)
			if parallel.report != serial.report {
				t.Errorf("reports differ:\n--- GOMAXPROCS=1 ---\n%s\n--- default ---\n%s", serial.report, parallel.report)
			}
			if parallel.trace != serial.trace {
				t.Errorf("Chrome trace hashes differ: %s on one worker, %s on the default", serial.trace, parallel.trace)
			}
			if !reflect.DeepEqual(parallel.order, serial.order) {
				t.Errorf("checkpoint order %v, want %v", parallel.order, serial.order)
			}
		})
	}
}

// TestDMASweepSimulatesDistinctPoints: fig6 and fig7 at the 2^13 cap
// and seed 7 simulate each distinct point once (the default machine
// repeats across their axes), yet commit every label in sweep order
// with the checkpoint bytes of a sweep that simulates every point.
func TestDMASweepSimulatesDistinctPoints(t *testing.T) {
	sims := countSimulations(t)
	for _, tc := range []struct {
		id                string
		points, simulated int
		bytes             string
	}{
		{"fig6", 54, 48, "7a60d9e56b83090de5fedeefe321c7c78ee6215dd0d5703fb2e269d62a0c6c33"},
		{"fig7", 55, 50, "b10773f3e4b1381bc91d3c14cab6357a16409bf522cbe9e18e8bf10bbeabd94c"},
	} {
		t.Run(tc.id, func(t *testing.T) {
			e, err := ByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			sims.Store(0)
			cp := NewCheckpoint()
			if _, err := e.Run(WithCheckpoint(context.Background(), cp), Options{MaxSimEdges: 1 << 13, Seed: 7}); err != nil {
				t.Fatal(err)
			}
			if got := sims.Load(); got != int64(tc.simulated) {
				t.Errorf("simulated %d points, want %d", got, tc.simulated)
			}
			pts := cp.Points()
			raw, err := json.Marshal(pts)
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != tc.points || sha256Hex(raw) != tc.bytes {
				t.Errorf("checkpoint holds %d points hashing to %s, want %d hashing to %s", len(pts), sha256Hex(raw), tc.points, tc.bytes)
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
