package workload

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/serve"
	"piumagcn/internal/store"
)

// virtualClock advances instantly to each requested offset, so engine
// tests run in microseconds of wall time and — paired with a
// deterministic client — produce bit-identical runs.
type virtualClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *virtualClock) Start() {}

func (c *virtualClock) Since() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *virtualClock) SleepUntil(ctx context.Context, offset time.Duration) bool {
	c.mu.Lock()
	if offset > c.now {
		c.now = offset
	}
	c.mu.Unlock()
	return ctx.Err() == nil
}

// fakeClient settles every request successfully with a latency that is
// a pure function of the sequence number.
type fakeClient struct{}

func (fakeClient) Do(_ context.Context, req Request) Response {
	return Response{
		HTTPStatus: 200,
		RunStatus:  "done",
		RunID:      req.Experiment + "-run",
		Latency:    time.Duration(req.Seq%7+1) * time.Millisecond,
	}
}

// runDeterministic runs sc against the fake client under a virtual
// clock, recording into a buffer, and returns (trace bytes, report).
func runDeterministic(t *testing.T, sc Scenario) ([]byte, *Report) {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, sc)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{
		Scenario:    sc,
		Client:      fakeClient{},
		Clock:       &virtualClock{},
		Trace:       tw,
		MaxInFlight: -1, // unbounded: shed decisions would race the fake client
	}
	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestRunDeterministic is the core acceptance property: the same
// seeded scenario run twice produces byte-identical traces and
// byte-identical reports.
func TestRunDeterministic(t *testing.T) {
	sc, err := Named("canonical")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the horizon so the test stays fast; determinism is
	// independent of scale.
	sc.DurationMS = 1000
	trace1, rep1 := runDeterministic(t, sc)
	trace2, rep2 := runDeterministic(t, sc)
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("traces differ across identical runs (%d vs %d bytes)", len(trace1), len(trace2))
	}
	j1, j2 := reportJSON(t, rep1), reportJSON(t, rep2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("reports differ across identical runs:\n%s\nvs\n%s", j1, j2)
	}
	if rep1.Requests == 0 || rep1.Completed != rep1.Requests {
		t.Fatalf("fake-client run should complete everything: %+v", rep1)
	}
}

// TestReplayByteIdentical records a run, replays the decoded trace
// with the same deterministic client, and requires the replayed trace
// to be byte-identical to the original — requests by construction
// (verbatim re-framing), responses because the client is a pure
// function of the schedule.
func TestReplayByteIdentical(t *testing.T) {
	sc, err := Named("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	sc.DurationMS = 1000
	original, rep := runDeterministic(t, sc)
	tr, err := ReadTrace(bytes.NewReader(original))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Scenario.String(), sc.normalized().String(); got != want {
		t.Fatalf("decoded scenario drifted:\n  got:  %s\n  want: %s", got, want)
	}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, tr.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Client: fakeClient{}, Clock: &virtualClock{}, Trace: tw, MaxInFlight: -1}
	rep2, err := e.Replay(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(original, buf.Bytes()) {
		t.Fatalf("replayed trace differs from original (%d vs %d bytes)", len(original), len(buf.Bytes()))
	}
	if !rep2.Replayed {
		t.Error("replay report not marked Replayed")
	}
	// Everything but the Replayed marker must match the original report.
	rep2.Replayed = false
	if got, want := reportJSON(t, rep2), reportJSON(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("replay report differs:\n%s\nvs\n%s", got, want)
	}
}

// instantExperiment is a served experiment that completes immediately.
func instantExperiment(id string) bench.Experiment {
	return bench.Experiment{
		ID:    id,
		Title: "instant " + id,
		Run: func(ctx context.Context, o bench.Options) (*bench.Report, error) {
			r := &bench.Report{ID: id, Title: "instant"}
			r.Add("section", "body")
			return r, nil
		},
	}
}

// TestRecordReplayAgainstServe exercises the full HTTP path: record a
// run against a live httptest serve instance, replay the trace against
// the same server, and require the request streams of the two traces to
// be byte-identical (responses carry measured wall-clock latencies and
// may differ).
func TestRecordReplayAgainstServe(t *testing.T) {
	srv := serve.New(serve.Config{Experiments: []bench.Experiment{instantExperiment("table1")}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc, err := Parse("name=ht,seed=5,rate=200,duration=250ms;" +
		"tenant=a,class=gold,weight=2,experiment=table1,templates=2;" +
		"tenant=b,class=silver,experiment=table1,templates=2;" +
		"tenant=c,class=batch,experiment=table1")
	if err != nil {
		t.Fatal(err)
	}
	client := &HTTPClient{C: serve.NewClient(ts.URL, nil), Timeout: 10 * time.Second}

	record := func() *Trace {
		var buf bytes.Buffer
		tw, err := NewTraceWriter(&buf, sc)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Scenario: sc, Client: client, Trace: tw}
		rep, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Requests == 0 {
			t.Fatal("no requests issued")
		}
		if rep.Errors != 0 {
			t.Fatalf("live run reported %d errors:\n%s", rep.Errors, rep.Render())
		}
		tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	tr := record()
	var buf2 bytes.Buffer
	tw2, err := NewTraceWriter(&buf2, tr.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	e2 := &Engine{Client: client, Trace: tw2}
	rep2, err := e2.Replay(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Errors != 0 {
		t.Fatalf("replay reported %d errors:\n%s", rep2.Errors, rep2.Render())
	}
	tr2, err := ReadTrace(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.RawRequests) != len(tr2.RawRequests) {
		t.Fatalf("request counts differ: %d vs %d", len(tr.RawRequests), len(tr2.RawRequests))
	}
	for i := range tr.RawRequests {
		if !bytes.Equal(tr.RawRequests[i], tr2.RawRequests[i]) {
			t.Fatalf("request frame %d differs:\n%s\nvs\n%s", i, tr.RawRequests[i], tr2.RawRequests[i])
		}
	}
	// The engine submitted runs with the SLO class attached; the server
	// must have accounted them under the bounded class families.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exposition, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`piumaserve_class_requests_total{class="gold"}`,
		`piumaserve_class_requests_total{class="silver"}`,
		`piumaserve_class_requests_total{class="batch"}`,
	} {
		if !strings.Contains(string(exposition), want) {
			t.Errorf("server metrics missing %s", want)
		}
	}
}

// TestShedOverCap checks the open-loop guarantee: requests over the
// in-flight cap settle immediately as backpressure instead of queueing
// in the generator.
func TestShedOverCap(t *testing.T) {
	release := make(chan struct{})
	blocked := blockingClient{release: release}
	sc, err := Parse("seed=1,rate=1000,duration=1s,max-requests=4;tenant=a,class=gold,experiment=table1")
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Scenario: sc, Client: blocked, Clock: &virtualClock{}, MaxInFlight: 1}
	done := make(chan *Report, 1)
	go func() {
		rep, err := e.Run(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	// The first request holds the only slot; the remaining three must
	// shed, after which releasing the client lets the run finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	rep := <-done
	if rep == nil {
		t.Fatal("run failed")
	}
	if rep.Backpressure != 3 || rep.Completed != 1 {
		t.Fatalf("want 1 completed + 3 shed, got %+v", rep)
	}
}

// blockingClient blocks every request until release is closed.
type blockingClient struct{ release <-chan struct{} }

func (c blockingClient) Do(ctx context.Context, req Request) Response {
	select {
	case <-c.release:
		return Response{HTTPStatus: 200, RunStatus: "done", Latency: time.Millisecond}
	case <-ctx.Done():
		return Response{Err: ctx.Err().Error()}
	}
}

// countingClient tracks the peak number of concurrent Do calls.
type countingClient struct {
	cur, peak atomic.Int64
}

func (c *countingClient) Do(ctx context.Context, req Request) Response {
	n := c.cur.Add(1)
	defer c.cur.Add(-1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	return Response{HTTPStatus: 200, RunStatus: "done", Latency: time.Millisecond}
}

// TestClosedLoopConcurrencyBound checks the defining closed-loop
// property: in-flight requests never exceed the worker population, and
// MaxRequests caps the run.
func TestClosedLoopConcurrencyBound(t *testing.T) {
	sc, err := Parse("seed=3,mode=closed,concurrency=3,duration=30s,max-requests=9;" +
		"tenant=a,class=gold,experiment=table1,templates=2")
	if err != nil {
		t.Fatal(err)
	}
	client := &countingClient{}
	e := &Engine{Scenario: sc, Client: client}
	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 9 || rep.Completed != 9 {
		t.Fatalf("want 9 completed requests, got %+v", rep)
	}
	if peak := client.peak.Load(); peak > 3 {
		t.Fatalf("closed loop exceeded its population: peak %d > concurrency 3", peak)
	}
}

// closedDeterministicSpec is a one-worker closed loop with think time
// and two tenants.
const closedDeterministicSpec = "seed=9,mode=closed,concurrency=1,think=10ms,duration=10s,max-requests=25;" +
	"tenant=a,class=gold,weight=2,experiment=table1,templates=3;" +
	"tenant=b,class=batch,experiment=table1,templates=2"

// TestClosedLoopDeterministic: with one worker, a deterministic client
// and a virtual clock, a closed run is as reproducible as an open one —
// byte-identical traces and reports.
func TestClosedLoopDeterministic(t *testing.T) {
	sc, err := Parse(closedDeterministicSpec)
	if err != nil {
		t.Fatal(err)
	}
	trace1, rep1 := runDeterministic(t, sc)
	trace2, rep2 := runDeterministic(t, sc)
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("closed traces differ across identical runs (%d vs %d bytes)", len(trace1), len(trace2))
	}
	if got, want := reportJSON(t, rep1), reportJSON(t, rep2); !bytes.Equal(got, want) {
		t.Fatalf("closed reports differ:\n%s\nvs\n%s", got, want)
	}
	if rep1.Requests != 25 || rep1.Completed != 25 {
		t.Fatalf("want 25 completed requests, got %+v", rep1)
	}
}

// TestClosedTraceReplaysOpenLoop: a recorded closed-loop trace replays
// through the open-loop core (actual issue offsets become the
// schedule), reproducing the request stream byte for byte.
func TestClosedTraceReplaysOpenLoop(t *testing.T) {
	sc, err := Parse("seed=9,mode=closed,concurrency=1,think=10ms,duration=10s,max-requests=10;" +
		"tenant=a,class=gold,experiment=table1,templates=2")
	if err != nil {
		t.Fatal(err)
	}
	original, _ := runDeterministic(t, sc)
	tr, err := ReadTrace(bytes.NewReader(original))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, tr.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Client: fakeClient{}, Clock: &virtualClock{}, Trace: tw, MaxInFlight: -1}
	rep, err := e.Replay(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Replayed || rep.Requests != 10 {
		t.Fatalf("replay: %+v", rep)
	}
	tr2, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.RawRequests {
		if !bytes.Equal(tr.RawRequests[i], tr2.RawRequests[i]) {
			t.Fatalf("request frame %d differs:\n%s\nvs\n%s", i, tr.RawRequests[i], tr2.RawRequests[i])
		}
	}
}

// TestGeneratorPins pins the generator's bytes across builds: the
// SHA-256 of the trace and of the JSON report of four deterministic
// runs. The determinism tests compare two runs of one build, so only
// this test catches a change that moves every byte the same way.
func TestGeneratorPins(t *testing.T) {
	named := func(name string, durationMS int64) Scenario {
		sc, err := Named(name)
		if err != nil {
			t.Fatal(err)
		}
		if durationMS > 0 {
			sc.DurationMS = durationMS
		}
		return sc
	}
	closed, err := Parse(closedDeterministicSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		sc            Scenario
		requests      int64
		trace, report string
	}{
		{"canonical", named("canonical", 1000), 31,
			"55614a73e548c65171abf38071ccd102f8dc4a94451d7269397d720c4a2983db",
			"dba7e61e79be5acb56ac7688684d2fe3ccf8dd987da9bc8803d71bfe5d7d527f"},
		{"diurnal", named("diurnal", 1000), 92,
			"59969ea9a411f93828335611d5b1c3d1758cd91f22e20774db0ddca4449045ba",
			"1090ec1c2ffd1d30463c4f15dec7b786b92091e33feefecb5ccb9f9ed60e3d4e"},
		{"smoke", named("smoke", 0), 33,
			"ed8fc9de165e3e9ea4bef366fb934c07bc58408b2c8a7c37996545fa900ac0dc",
			"8ca405be67005215ea60ed59606c93c1e95dd23c82e0ff4fd33014fa7ede3284"},
		{"closed", closed, 25,
			"103b7097b1f8e0209df05767fa6211cd81341086af286eba2979b1524c29281a",
			"4c76fae887112e5d2034a32ec94dfeb4efe80247b93b314a127e18c725d28a2a"},
	} {
		trace, rep := runDeterministic(t, tc.sc)
		if rep.Requests != tc.requests {
			t.Errorf("%s: %d requests, want %d", tc.name, rep.Requests, tc.requests)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != tc.trace {
			t.Errorf("%s: trace sha256 %s, want %s", tc.name, got, tc.trace)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(reportJSON(t, rep))); got != tc.report {
			t.Errorf("%s: report sha256 %s, want %s", tc.name, got, tc.report)
		}
	}
}

var errWriteFailed = errors.New("write failed")

// failAfter accepts n writes, then fails every later one.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errWriteFailed
	}
	w.n--
	return len(p), nil
}

// sleepyClient holds every request for 100ms and counts those in flight.
type sleepyClient struct{ inFlight atomic.Int64 }

func (c *sleepyClient) Do(ctx context.Context, req Request) Response {
	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	time.Sleep(100 * time.Millisecond)
	return Response{HTTPStatus: 200, RunStatus: "done", Latency: time.Millisecond}
}

// TestTraceWriteErrorWaitsForInFlight: when a request frame fails to
// write, Run stops issuing and returns the error only once every
// request it already dispatched has settled.
func TestTraceWriteErrorWaitsForInFlight(t *testing.T) {
	for _, spec := range []string{
		"seed=1,rate=1000,duration=1s,max-requests=8;tenant=a,class=gold,experiment=table1",
		"seed=1,mode=closed,concurrency=4,duration=1s,max-requests=8;tenant=a,class=gold,experiment=table1",
	} {
		sc, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		// The header and three request frames land; the fourth fails.
		tw, err := NewTraceWriter(&failAfter{n: 4}, sc)
		if err != nil {
			t.Fatal(err)
		}
		client := &sleepyClient{}
		e := &Engine{Scenario: sc, Client: client, Clock: &virtualClock{}, Trace: tw, MaxInFlight: -1}
		if _, err := e.Run(context.Background()); !errors.Is(err, errWriteFailed) {
			t.Fatalf("%s: Run error %v, want %v", sc.Mode, err, errWriteFailed)
		}
		if n := client.inFlight.Load(); n != 0 {
			t.Fatalf("%s: Run returned with %d request(s) still in flight", sc.Mode, n)
		}
	}
}

// TestReadTraceRejectsSeqGap: a trace whose request seqs are not 0, 1,
// 2, ... in frame order passes CRC and JSON but cannot be replayed, so
// ReadTrace refuses it and names the offending frame.
func TestReadTraceRejectsSeqGap(t *testing.T) {
	sc, err := Parse("seed=1,rate=10,duration=1s;tenant=a,class=gold,experiment=table1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seqs  []int64
		frame int
	}{
		{[]int64{5}, 1},
		{[]int64{0, 2}, 2},
		{[]int64{0, 0}, 2},
		{[]int64{1, 0}, 1},
	} {
		var buf bytes.Buffer
		if _, err := NewTraceWriter(&buf, sc); err != nil {
			t.Fatal(err)
		}
		fw := store.NewFrameWriter(&buf)
		for _, seq := range tc.seqs {
			payload := fmt.Sprintf(`{"kind":"req","seq":%d,"offset_us":0,"tenant":"a","class":"gold","experiment":"table1","options":{}}`, seq)
			if err := fw.WriteFrame([]byte(payload)); err != nil {
				t.Fatal(err)
			}
		}
		_, err := ReadTrace(&buf)
		if err == nil {
			t.Fatalf("seqs %v: ReadTrace accepted the trace", tc.seqs)
		}
		if want := fmt.Sprintf("request frame %d ", tc.frame); !strings.Contains(err.Error(), want) {
			t.Fatalf("seqs %v: error %q does not name %q", tc.seqs, err, want)
		}
	}
}
