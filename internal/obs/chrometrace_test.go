package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"piumagcn/internal/sim"
)

// traceDoc mirrors the exported JSON for schema checks.
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Ph   string          `json:"ph"`
	PID  int             `json:"pid"`
	TID  int             `json:"tid"`
	TS   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	ID   string          `json:"id"`
	Args json.RawMessage `json:"args"`
}

func exportTrace(t *testing.T, p *Profiler) (string, traceDoc) {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return buf.String(), doc
}

func TestChromeTraceSchema(t *testing.T) {
	p := NewProfiler(ProfilerOptions{})
	driveRun(t, p.StartRun("run-a"))
	p.RecordHostSpan("fig5", 0, 3*time.Millisecond)
	raw, doc := exportTrace(t, p)

	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("no events:\n%s", raw)
	}
	sawProcessName, sawThreadName, sawComplete, sawAsync := false, false, false, false
	open := map[string]int{} // async cat/id/name key -> open count
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				sawProcessName = true
			}
			if ev.Name == "thread_name" {
				sawThreadName = true
			}
			if ev.PID == 0 {
				t.Fatalf("metadata without pid: %+v", ev)
			}
		case "X":
			sawComplete = true
			if ev.PID == 0 || ev.TID == 0 || ev.Name == "" || ev.Cat == "" || ev.TS < 0 || ev.Dur < 0 {
				t.Fatalf("malformed complete event: %+v", ev)
			}
		case "b", "e":
			sawAsync = true
			if ev.ID == "" || ev.Cat == "" {
				t.Fatalf("async event missing id/cat: %+v", ev)
			}
			key := ev.Cat + "/" + ev.ID + "/" + ev.Name
			if ev.Ph == "b" {
				open[key]++
			} else {
				open[key]--
				if open[key] < 0 {
					t.Fatalf("async end before begin: %+v", ev)
				}
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	for k, n := range open {
		if n != 0 {
			t.Fatalf("unbalanced async span %s (%d open)", k, n)
		}
	}
	if !sawProcessName || !sawThreadName || !sawComplete || !sawAsync {
		t.Fatalf("missing event kinds: M-process=%v M-thread=%v X=%v async=%v\n%s",
			sawProcessName, sawThreadName, sawComplete, sawAsync, raw)
	}
}

// TestChromeTraceCompleteSpansDoNotOverlap verifies the span-nesting
// invariant: complete ("X") events on one (pid, tid) track come from a
// FIFO server timeline and must be sequential.
func TestChromeTraceCompleteSpansDoNotOverlap(t *testing.T) {
	p := NewProfiler(ProfilerOptions{})
	rt := p.StartRun("seq")
	// Overlapping reservation *requests* that the FIFO server serializes.
	for i := 0; i < 10; i++ {
		rt.Reserve("slice0", sim.Time(i*5), sim.Time(i*5+5))
	}
	_, doc := exportTrace(t, p)
	type track struct{ pid, tid int }
	byTrack := map[track][]traceEvent{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			k := track{ev.PID, ev.TID}
			byTrack[k] = append(byTrack[k], ev)
		}
	}
	if len(byTrack) == 0 {
		t.Fatal("no complete events")
	}
	for k, evs := range byTrack {
		sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
		const eps = 1e-9 // float64 slack from JSON round-tripping ts+dur
		for i := 1; i < len(evs); i++ {
			prevEnd := evs[i-1].TS + evs[i-1].Dur
			if evs[i].TS < prevEnd-eps {
				t.Fatalf("track %+v: span %d starts %.6f before previous end %.6f", k, i, evs[i].TS, prevEnd)
			}
		}
	}
}

// TestChromeTraceGolden pins the exact byte layout for a minimal
// deterministic scenario, so format drift is caught deliberately.
func TestChromeTraceGolden(t *testing.T) {
	p := NewProfiler(ProfilerOptions{})
	rt := p.StartRun("golden")
	rt.Reserve("slice0", 0, 5*sim.Nanosecond)
	rt.Span("t0", "startup", 0, 2*sim.Nanosecond)
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","pid":2,"name":"process_name","args":{"name":"golden"}},
{"ph":"M","pid":2,"tid":1,"name":"thread_name","args":{"name":"slice0"}},
{"ph":"M","pid":2,"tid":2,"name":"thread_name","args":{"name":"t0"}},
{"ph":"X","pid":2,"tid":1,"ts":0.000000,"dur":0.005000,"name":"slice0","cat":"dram-slice"},
{"ph":"b","cat":"thread","id":"1","pid":2,"tid":2,"name":"startup","ts":0.000000},
{"ph":"e","cat":"thread","id":"1","pid":2,"tid":2,"name":"startup","ts":0.002000}
]}
`
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestChromeTraceEmptyProfilerIsLoadable(t *testing.T) {
	p := NewProfiler(ProfilerOptions{})
	raw, doc := exportTrace(t, p)
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("expected empty trace, got:\n%s", raw)
	}
}

// TestChromeTraceDeterministicForIdenticalRuns: the engine promises an
// identical event trace per run; the exporter must preserve that all
// the way to the bytes. (The full PIUMA-kernel determinism test lives
// in internal/piuma/kernels, which owns the simulation.)
func TestChromeTraceDeterministicForIdenticalRuns(t *testing.T) {
	export := func() string {
		p := NewProfiler(ProfilerOptions{})
		driveRun(t, p.StartRun("det"))
		var buf bytes.Buffer
		if err := p.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := export(), export()
	if a != b {
		t.Fatalf("identical runs exported different traces:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, `"cat":"dram-slice"`) {
		t.Fatalf("trace missing slice spans:\n%s", a)
	}
}

// TestReplayMatchesARepeatedRun: a run that replays a finished run
// exports and summarizes exactly as a second simulation of the same
// machine would, under its own label.
func TestReplayMatchesARepeatedRun(t *testing.T) {
	export := func(p *Profiler) string {
		var buf bytes.Buffer
		if err := p.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	simulated := NewProfiler(ProfilerOptions{})
	driveRun(t, simulated.StartRun("first"))
	driveRun(t, simulated.StartRun("again"))

	replayed := NewProfiler(ProfilerOptions{})
	src := replayed.StartRun("first")
	driveRun(t, src)
	replayed.StartRun("again").Replay(src)

	if a, b := export(simulated), export(replayed); a != b {
		t.Fatalf("replayed trace differs from a repeated run:\n%s\n---\n%s", a, b)
	}
	if a, b := simulated.Summary(), replayed.Summary(); a != b {
		t.Fatalf("replayed summary differs:\n%s\n---\n%s", a, b)
	}
	if a, b := simulated.Stats(), replayed.Stats(); !reflect.DeepEqual(a, b) || b[1].Label != "again" {
		t.Fatalf("replayed stats differ:\n%+v\n%+v", a, b)
	}
}
