package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/store"
)

// The trace wire format reuses internal/store's length-prefixed CRC32C
// framing (one source of truth for framing across the WAL and traces).
// Payloads are canonical JSON records discriminated by "kind":
//
//	{"kind":"scenario", ...}   exactly one, first — the full scenario
//	{"kind":"req", ...}        one per issued request, in seq order
//	{"kind":"resp", ...}       one per settled request, in seq order,
//	                           written after the run completes
//
// Request records carry only schedule-derived fields (offset, tenant,
// template options), so a seeded scenario writes byte-identical request
// streams on every run; response records carry the measured outcome.
// Replay re-frames the recorded request payload bytes verbatim, which
// is what makes a replayed trace byte-identical to its source.

// TraceRequest is one issued request as recorded.
type TraceRequest struct {
	Kind string `json:"kind"` // "req"
	Seq  int64  `json:"seq"`
	// OffsetUS is the scheduled issue offset from run start, in
	// microseconds (schedule time, not wall time — deterministic).
	OffsetUS   int64         `json:"offset_us"`
	Tenant     string        `json:"tenant"`
	Class      string        `json:"class"`
	Experiment string        `json:"experiment"`
	Options    bench.Options `json:"options"`
}

// Offset is the scheduled issue time.
func (r TraceRequest) Offset() time.Duration {
	return time.Duration(r.OffsetUS) * time.Microsecond
}

// TraceResponse is one settled request's outcome as recorded.
type TraceResponse struct {
	Kind string `json:"kind"` // "resp"
	Seq  int64  `json:"seq"`
	// HTTPStatus is the transport status (0 for transport failures and
	// engine-side sheds).
	HTTPStatus int `json:"http_status,omitempty"`
	// RunStatus is the terminal serve status ("done", "failed", ...);
	// empty when no run resource came back.
	RunStatus string `json:"run_status,omitempty"`
	// RunID is the content-addressed run the request mapped to.
	RunID string `json:"run_id,omitempty"`
	// LatencyUS is the request's observed latency in microseconds.
	LatencyUS int64  `json:"latency_us"`
	Err       string `json:"err,omitempty"`
	// Retried429 counts 429 rounds absorbed before this outcome
	// (omitempty keeps pre-backpressure traces byte-identical).
	Retried429 int64 `json:"retried_429,omitempty"`
}

// Latency is the observed request latency.
func (r TraceResponse) Latency() time.Duration {
	return time.Duration(r.LatencyUS) * time.Microsecond
}

type traceHeader struct {
	Kind     string   `json:"kind"` // "scenario"
	Scenario Scenario `json:"scenario"`
}

// TraceWriter records a run. It is not safe for concurrent use: the
// engine serializes writes (request frames under its issue lock,
// responses in seq order after the run).
type TraceWriter struct {
	fw *store.FrameWriter
}

// NewTraceWriter writes the scenario header frame and returns the
// writer.
func NewTraceWriter(w io.Writer, sc Scenario) (*TraceWriter, error) {
	tw := &TraceWriter{fw: store.NewFrameWriter(w)}
	payload, err := json.Marshal(traceHeader{Kind: "scenario", Scenario: sc.normalized()})
	if err != nil {
		return nil, fmt.Errorf("workload: encoding trace header: %w", err)
	}
	if err := tw.fw.WriteFrame(payload); err != nil {
		return nil, fmt.Errorf("workload: writing trace header: %w", err)
	}
	return tw, nil
}

// WriteRequest records one issued request.
func (tw *TraceWriter) WriteRequest(r TraceRequest) error {
	r.Kind = "req"
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("workload: encoding request %d: %w", r.Seq, err)
	}
	if err := tw.fw.WriteFrame(payload); err != nil {
		return fmt.Errorf("workload: writing request %d: %w", r.Seq, err)
	}
	return nil
}

// WriteRequestRaw re-frames a recorded request payload byte for byte.
func (tw *TraceWriter) WriteRequestRaw(payload []byte) error {
	return tw.fw.WriteFrame(payload)
}

// WriteResponse records one settled request.
func (tw *TraceWriter) WriteResponse(r TraceResponse) error {
	r.Kind = "resp"
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("workload: encoding response %d: %w", r.Seq, err)
	}
	if err := tw.fw.WriteFrame(payload); err != nil {
		return fmt.Errorf("workload: writing response %d: %w", r.Seq, err)
	}
	return nil
}

// Trace is a fully decoded recording.
type Trace struct {
	Scenario Scenario
	Requests []TraceRequest
	// RawRequests holds each request's exact payload bytes, index-
	// aligned with Requests; replay re-frames them verbatim.
	RawRequests [][]byte
	Responses   []TraceResponse
}

// ReadTrace decodes a recording. It fails on a missing or misplaced
// scenario header, an unknown record kind, request seqs that are not
// 0, 1, 2, ... in frame order, or a corrupt frame
// (truncated response suffixes from a crashed run are NOT an error:
// requests without responses simply stay unsettled).
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := store.NewFrameScanner(r)
	tr := &Trace{}
	n := 0
	for sc.Scan() {
		payload := sc.Frame()
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(payload, &kind); err != nil {
			return nil, fmt.Errorf("workload: trace frame %d is not a JSON record: %v", n, err)
		}
		if n == 0 && kind.Kind != "scenario" {
			return nil, fmt.Errorf("workload: trace must start with a scenario header, got %q", kind.Kind)
		}
		switch kind.Kind {
		case "scenario":
			if n != 0 {
				return nil, fmt.Errorf("workload: scenario header at frame %d, want frame 0", n)
			}
			var h traceHeader
			if err := json.Unmarshal(payload, &h); err != nil {
				return nil, fmt.Errorf("workload: decoding trace header: %v", err)
			}
			tr.Scenario = h.Scenario
		case "req":
			var req TraceRequest
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, fmt.Errorf("workload: decoding request frame %d: %v", n, err)
			}
			if want := int64(len(tr.Requests)); req.Seq != want {
				return nil, fmt.Errorf("workload: request frame %d has seq %d, want %d", n, req.Seq, want)
			}
			tr.Requests = append(tr.Requests, req)
			tr.RawRequests = append(tr.RawRequests, append([]byte(nil), payload...))
		case "resp":
			var resp TraceResponse
			if err := json.Unmarshal(payload, &resp); err != nil {
				return nil, fmt.Errorf("workload: decoding response frame %d: %v", n, err)
			}
			tr.Responses = append(tr.Responses, resp)
		default:
			return nil, fmt.Errorf("workload: unknown trace record kind %q at frame %d", kind.Kind, n)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if tail := sc.Tail(); !tail.Clean() {
		return nil, fmt.Errorf("workload: corrupt trace tail at byte %d (%s)", tail.Offset, tail.Reason)
	}
	if n == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return tr, nil
}
