//go:build !race

// The pins replay every simulator sweep, which takes minutes under the
// race detector; the simulation runs on one goroutine, so they are left
// out of race builds (TestExtDegradedCrossRunDeterminism still runs there).

package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"piumagcn/internal/obs"
)

// outputPins are SHA-256 hashes of the QuickOptions report text and the
// Chrome trace of every simulator experiment. Unlike
// TestExtDegradedCrossRunDeterminism, which compares two runs inside
// one process, these pins hold across commits: a refactor of the
// simulation engine or the kernels must leave them unchanged. A change
// that is meant to alter simulated behaviour updates them and says so.
var outputPins = []struct {
	id, report, trace string
}{
	{"fig5",
		"523047b12843e388cc73b017973e3a0e83815a9c0859dad3dd61f9a11d22a9bd",
		"79a529bee26c8d9f6426eb1aac15b808dbb6cf43700adcf0c4f0b29f279ed831"},
	{"fig6",
		"35328a09f16bff40d46a0cd2b956739a78b6696ca6bf7fdf4de4b5592dcae02f",
		"a5a9c07830d5f65a481d4ef90dda6a05a0cdc5798885b96a20997d3545b79d02"},
	{"fig7",
		"d6488ddc1c8ba4d60ce1f6e5ca6e9a48fb1e7d9a0f3da11edb443362f9873898",
		"fadb91d434fe24d2a180df0669c1f53dc2f524c337a1054590e23df597a7a386"},
	{"fig8",
		"12530df6d1938f0c03fa2aa839d342009b53b2f61d93f44fb93498df57e9b7d1",
		"98e50862c1d06db36fc7ef482e78bc566b9ad79f5c59745cf5fbe5b283197530"},
	{"ext-degraded",
		"07773881f691d643a86b49b87625b4b920bdd4a6ecf4fc597895aece2c1c9cfb",
		"6295ba7870cf727931646ea28320b8fbb9e9f6a67094202b227928b0772b48b6"},
	{"ext-vertexpar",
		"ccabbdada9bb1adb018cd2ca4d2a2bab2c61706ed489aaeb6050c242eae97581",
		"f27560568680fecb89a3713c8d349ee18fe1bb421df38a0a4078bee519264246"},
	{"ext-randomwalk",
		"b19dd1034ee50e104ab431d8947a0b2c90f234ceb21281d845f76c13a8e928f9",
		"d9e1cb98da52aadd058e33dcdd9a8c7063f0dd68dfba7c3fdb527bde31d5a296"},
}

func TestOutputPins(t *testing.T) {
	for _, pin := range outputPins {
		t.Run(pin.id, func(t *testing.T) {
			e, err := ByID(pin.id)
			if err != nil {
				t.Fatal(err)
			}
			prof := obs.NewProfiler(obs.ProfilerOptions{})
			rep, err := e.Run(obs.NewContext(context.Background(), prof), QuickOptions())
			if err != nil {
				t.Fatal(err)
			}
			var trace bytes.Buffer
			if err := prof.WriteChromeTrace(&trace); err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex([]byte(rep.String())); got != pin.report {
				t.Errorf("report hash = %s, want %s", got, pin.report)
			}
			if got := sha256Hex(trace.Bytes()); got != pin.trace {
				t.Errorf("Chrome trace hash = %s, want %s", got, pin.trace)
			}
		})
	}
}

// TestWorkerCountInvariance: a sweep on one worker and on the default
// GOMAXPROCS workers renders the same report, the same Chrome trace and
// the same checkpoint order for every simulator experiment.
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
		var trace bytes.Buffer
		if err := prof.WriteChromeTrace(&trace); err != nil {
			t.Fatal(err)
		}
		return output{rep.String(), trace.String(), checkpointLabels(cp)}
	}
	for _, pin := range outputPins {
		t.Run(pin.id, func(t *testing.T) {
			parallel := run(t, pin.id)
			setGOMAXPROCS(t, 1)
			serial := run(t, pin.id)
			if parallel.report != serial.report {
				t.Errorf("reports differ:\n--- GOMAXPROCS=1 ---\n%s\n--- default ---\n%s", serial.report, parallel.report)
			}
			if parallel.trace != serial.trace {
				t.Errorf("Chrome traces differ (%d vs %d bytes)", len(serial.trace), len(parallel.trace))
			}
			if !reflect.DeepEqual(parallel.order, serial.order) {
				t.Errorf("checkpoint order %v, want %v", parallel.order, serial.order)
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
