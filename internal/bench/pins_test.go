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

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
