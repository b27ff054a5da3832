package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"piumagcn/internal/bench"
)

// reflectiveRun is the reference encoding of a run resource: the whole
// struct, report included, through the reflective encoder.
func reflectiveRun(t testing.TB, head RunResource, rep *bench.Report) []byte {
	t.Helper()
	head.Report = rep
	var b bytes.Buffer
	if err := encodeJSON(&b, head); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return b.Bytes()
}

// spliced is the run-resource writer's encoding of the same resource.
func spliced(t testing.TB, head RunResource, rep *bench.Report) []byte {
	t.Helper()
	_, stored, err := encodeReport(rep)
	if err != nil {
		t.Fatalf("encoding report: %v", err)
	}
	out, err := encodeRunResource(head, stored)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	return out
}

func serveRequest(h http.Handler, method, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, nil))
	return w
}

func postRun(h http.Handler, experiment string, o bench.Options, wait bool) *httptest.ResponseRecorder {
	body, _ := json.Marshal(map[string]any{"experiment": experiment, "options": o})
	path := "/v1/runs"
	if wait {
		path += "?wait=true"
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return w
}

func stopServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// checkRunResponse compares one handler response with the reflective
// encoding of the run's current view (read after the response, which
// a terminal run no longer changes) carrying rep.
func checkRunResponse(t *testing.T, s *Server, w *httptest.ResponseRecorder, wantCode int, cached bool, rep *bench.Report) RunView {
	t.Helper()
	if w.Code != wantCode {
		t.Fatalf("status %d, want %d; body: %s", w.Code, wantCode, w.Body.String())
	}
	var head RunResource
	if err := json.Unmarshal(w.Body.Bytes(), &head); err != nil {
		t.Fatalf("decoding response: %v\nbody: %s", err, w.Body.String())
	}
	v, ok := s.Get(head.ID)
	if !ok {
		t.Fatalf("run %s not in the table", head.ID)
	}
	want := reflectiveRun(t, resourceFromView(v, cached), rep)
	if got := w.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("response differs from the reflective encoding\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
		t.Fatalf("Content-Length = %q, body is %d bytes", cl, w.Body.Len())
	}
	return v
}

// TestRunResourceByteIdentity: every run resource a handler writes is
// byte-identical to the reflective encoding of the whole resource, for
// the report of every registered experiment and each shape a done or
// failed run takes: a fresh done run, a cache hit, a polled run with
// hits, and a failed run with a report and an error.
func TestRunResourceByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment; skipped with -short")
	}
	o := bench.QuickOptions()
	failed := o
	failed.Seed++ // a distinct run of the same experiment, which fails
	for _, e := range bench.All() {
		t.Run(e.ID, func(t *testing.T) {
			var mu sync.Mutex
			var rep *bench.Report
			wrapped := e
			wrapped.Run = func(ctx context.Context, ro bench.Options) (*bench.Report, error) {
				mu.Lock()
				defer mu.Unlock()
				if ro.Seed == failed.Seed {
					// Fail with the done run's report and an error that
					// needs escaping.
					return rep, errors.New(`lost <node> & "backend"` + " ")
				}
				r, err := e.Run(ctx, ro)
				rep = r
				return r, err
			}
			s := New(Config{Workers: 1, Experiments: []bench.Experiment{wrapped}})
			defer stopServer(t, s)
			h := s.Handler()

			// Each response is taken before rep is read: the run sets it.
			w := postRun(h, e.ID, o, true)
			v := checkRunResponse(t, s, w, http.StatusOK, false, rep)
			if v.Status != StatusDone || v.ReportJSON == nil {
				t.Fatalf("fresh run = %q (report %v), want done with report", v.Status, v.ReportJSON != nil)
			}
			if v = checkRunResponse(t, s, postRun(h, e.ID, o, true), http.StatusOK, true, rep); v.Hits != 1 {
				t.Fatalf("cache hit left hits = %d, want 1", v.Hits)
			}
			checkRunResponse(t, s, serveRequest(h, "GET", "/v1/runs/"+v.ID), http.StatusOK, false, rep)

			w = postRun(h, e.ID, failed, true)
			v = checkRunResponse(t, s, w, http.StatusOK, false, rep)
			if v.Status != StatusFailed || v.Err == "" {
				t.Fatalf("failing run = %q (error %q), want failed with an error", v.Status, v.Err)
			}
		})
	}
}

// TestRunResourceInterruptedShapes covers the shapes no registered
// experiment produces on demand: a timed-out run whose partial report
// the checkpoint built, and a run canceled while queued (no report).
func TestRunResourceInterruptedShapes(t *testing.T) {
	const label, summary = `point <1> & "k"`, "value \x01"
	parked := bench.Experiment{
		ID:    "parked",
		Title: "parks <after> one point",
		Run: func(ctx context.Context, o bench.Options) (*bench.Report, error) {
			bench.CheckpointFrom(ctx).Complete(label, 1, summary)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	s := New(Config{Workers: 1, Experiments: []bench.Experiment{parked}})
	defer stopServer(t, s)
	h := s.Handler()

	cp := bench.NewCheckpoint()
	cp.Complete(label, 1, summary)
	partial := cp.PartialReport(parked)
	// A deadline budget, not RunTimeout, times this run out, so the
	// runs below can park until shutdown.
	body, _ := json.Marshal(map[string]any{"experiment": "parked", "options": bench.QuickOptions()})
	req := httptest.NewRequest("POST", "/v1/runs?wait=true", bytes.NewReader(body))
	req.Header.Set(DeadlineHeader, "20")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	v := checkRunResponse(t, s, w, http.StatusOK, false, partial)
	if v.Status != StatusTimeout || v.ReportJSON == nil || v.Err == "" {
		t.Fatalf("timed-out run = %q (report %v, error %q)", v.Status, v.ReportJSON != nil, v.Err)
	}

	// Occupy the lone worker, queue a second run behind it and cancel it.
	busy, queued := bench.QuickOptions(), bench.QuickOptions()
	busy.Seed, queued.Seed = 1, 2
	if w := postRun(h, "parked", busy, false); w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	w = postRun(h, "parked", queued, false)
	checkRunResponse(t, s, w, http.StatusAccepted, false, nil)
	id := RunID("parked", queued)
	v = checkRunResponse(t, s, serveRequest(h, "DELETE", "/v1/runs/"+id), http.StatusOK, false, nil)
	if v.Status != StatusCanceled || v.ReportJSON != nil {
		t.Fatalf("canceled queued run = %q (report %v), want canceled without a report", v.Status, v.ReportJSON != nil)
	}
}

// FuzzRunResourceEncoding: for arbitrary report and error strings, the
// spliced encoding equals the reflective one and is valid JSON. shape
// varies the report's optional parts: nil or empty sections and notes,
// and no report at all.
func FuzzRunResourceEncoding(f *testing.F) {
	for _, seed := range []struct {
		title, heading, body, note, errMsg string
		shape                              uint8
	}{
		{"fig3", "Table", "a | b\n1 | 2\n", "matches the paper", "", 0},
		{"<script>&amp;</script>", `"quoted"`, "<>&'", "&&", "<err>", 1},
		{"\xff\xfe\xfd", "\xc3\x28", "ok\xe2\x82", "\x80", "\xff", 2},
		{"  ", "line sep", "para sep", " ", " ", 3},
		{"\x00\x01\x1f", "\t\r\n", "\x7f\b\f", "\x00", "\x1b[31m", 4},
		{"", "", "", "", "", 5},
		{"", "", "", "", "", 6},
		{"", "", "", "", "", 7},
	} {
		f.Add(seed.title, seed.heading, seed.body, seed.note, seed.errMsg, seed.shape)
	}
	f.Fuzz(func(t *testing.T, title, heading, body, note, errMsg string, shape uint8) {
		rep := &bench.Report{ID: "fuzz" + title, Title: title}
		switch shape % 4 {
		case 0:
			rep.Add(heading, body)
			rep.Add(body, heading)
		case 1:
			rep.Sections = []bench.Section{} // encodes as []
		case 2: // nil sections encode as null
		case 3:
			rep = nil // a run without a report
		}
		if rep != nil && shape&4 != 0 {
			rep.Notes = []string{note, ""}
		}
		head := RunResource{
			ID:         "r-" + title,
			Experiment: heading,
			Options:    bench.QuickOptions(),
			Status:     StatusFailed,
			Hits:       int64(shape),
			Error:      errMsg,
		}
		got, want := spliced(t, head, rep), reflectiveRun(t, head, rep)
		if !bytes.Equal(got, want) {
			t.Fatalf("spliced encoding differs\n--- got ---\n%q\n--- want ---\n%q", got, want)
		}
		if !json.Valid(got) {
			t.Fatalf("spliced encoding is not valid JSON: %q", got)
		}
	})
}

// TestWriteJSONUnencodable: a value the encoder rejects yields a 500
// with a JSON error body and a Content-Length, not a 200 with a
// truncated body.
func TestWriteJSONUnencodable(t *testing.T) {
	for _, v := range []any{
		map[string]any{"ok": 1, "bad": func() {}},
		[]float64{1, 2, 3, math.Inf(1)},
	} {
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, v)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("%T: status %d, want 500", v, w.Code)
		}
		var body errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || !strings.HasPrefix(body.Error, "encoding response: ") {
			t.Fatalf("%T: body %q (decode error %v), want a JSON error body", v, w.Body.String(), err)
		}
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
			t.Fatalf("%T: Content-Length = %q, body is %d bytes", v, cl, w.Body.Len())
		}
	}
}
