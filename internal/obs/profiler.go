package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"piumagcn/internal/sim"
)

// Profiler collects span-level activity from one or more simulated
// runs. Each simulation attaches a RunTrace (via StartRun) as its
// sim.Tracer; the profiler aggregates per-component busy time into
// utilization breakdowns, keeps bounded span records for Chrome
// trace_event export, and subsumes the old sim.Recorder's event counts
// and activity sparkline.
//
// A Profiler is not internally synchronized: the discrete-event engine
// is single-threaded, and the intended lifecycle — attach, simulate,
// then read — never overlaps a live engine with a reader. Callers that
// hand results across goroutines (internal/serve) publish them through
// a channel or mutex of their own.
type Profiler struct {
	opts ProfilerOptions
	runs []*RunTrace
	host []hostSpan
}

// ProfilerOptions tunes retention.
type ProfilerOptions struct {
	// BucketWidth is the activity-sparkline resolution (default 1 µs).
	BucketWidth sim.Time
	// MaxSpans bounds retained span records per run: 0 means
	// DefaultMaxSpans, negative disables span retention entirely
	// (aggregation-only — the piumaserve mode). Aggregated counters
	// stay exact either way; only the exported trace is truncated, and
	// RunStats.DroppedSpans reports how much.
	MaxSpans int
}

// DefaultMaxSpans bounds the Chrome trace size to a few hundred MB in
// the worst case while keeping quick-option experiment traces complete.
const DefaultMaxSpans = 1 << 19

// NewProfiler returns a profiler with the given options.
func NewProfiler(opts ProfilerOptions) *Profiler {
	if opts.BucketWidth <= 0 {
		opts.BucketWidth = sim.Microsecond
	}
	if opts.MaxSpans == 0 {
		opts.MaxSpans = DefaultMaxSpans
	}
	return &Profiler{opts: opts}
}

// hostSpan is a wall-clock interval (one bench experiment), exported on
// the trace's host process track so even analytical experiments produce
// a non-empty, Perfetto-loadable timeline.
type hostSpan struct {
	name  string
	start time.Duration
	dur   time.Duration
}

// RecordHostSpan adds a wall-clock span at the given offset from the
// trace origin.
func (p *Profiler) RecordHostSpan(name string, start, dur time.Duration) {
	p.host = append(p.host, hostSpan{name: name, start: start, dur: dur})
}

// StartRun registers a new simulated run and returns its tracer, to be
// installed on the simulation (piuma.Machine.SetTracer or
// kernels.RunTraced) before the engine runs.
func (p *Profiler) StartRun(label string) *RunTrace {
	rt := &RunTrace{
		label:       label,
		bucketWidth: p.opts.BucketWidth,
		maxSpans:    p.opts.MaxSpans,
		transitions: make(map[string]int64),
		buckets:     make(map[int64]int64),
		compsByName: make(map[string]*component),
	}
	p.runs = append(p.runs, rt)
	return rt
}

// Mark is a position in the profiler's run list; StatsSince(mark)
// scopes a report section to the runs one experiment performed.
type Mark int

// Mark returns the current position. Nil-safe: a nil profiler marks 0.
func (p *Profiler) Mark() Mark {
	if p == nil {
		return 0
	}
	return Mark(len(p.runs))
}

// Stats summarizes every run. Nil-safe.
func (p *Profiler) Stats() []RunStats { return p.StatsSince(0) }

// StatsSince summarizes the runs recorded after m. Nil-safe.
func (p *Profiler) StatsSince(m Mark) []RunStats {
	if p == nil || int(m) >= len(p.runs) {
		return nil
	}
	out := make([]RunStats, 0, len(p.runs)-int(m))
	for _, rt := range p.runs[m:] {
		out = append(out, rt.stats())
	}
	return out
}

// Profile snapshots every run's stats for serialization (the body of
// piumaserve's GET /v1/runs/{id}/profile).
func (p *Profiler) Profile() *Profile {
	s := p.Stats()
	if s == nil {
		s = []RunStats{}
	}
	return &Profile{Runs: s}
}

// Profile is the JSON profile document: one entry per simulated run.
type Profile struct {
	Runs []RunStats `json:"runs"`
}

// RunStats is the aggregated view of one simulated run.
type RunStats struct {
	Label string `json:"label"`
	// Elapsed is the latest simulated time observed (events and span
	// ends), in picoseconds — the utilization denominator.
	Elapsed sim.Time `json:"elapsed_ps"`
	// Events is the number of engine events dispatched.
	Events int64 `json:"events"`
	// Spans is the number of retained span records; DroppedSpans counts
	// records discarded past the MaxSpans cap (aggregates stay exact).
	Spans        int   `json:"spans"`
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
	// Classes breaks activity down by component class: core (MTP issue
	// pipelines), dma, dram-slice, network, thread.
	Classes []ClassStats `json:"components"`
}

// Class returns the stats for one component class.
func (s RunStats) Class(name string) (ClassStats, bool) {
	for _, c := range s.Classes {
		if c.Class == name {
			return c, true
		}
	}
	return ClassStats{}, false
}

// ClassStats aggregates every component of one class.
type ClassStats struct {
	Class string `json:"class"`
	// Components is the number of distinct tracks (e.g. 8 DRAM slices).
	Components int `json:"components"`
	// Count is the number of reservations/spans recorded.
	Count int64 `json:"count"`
	// Busy is summed occupancy across the class's components.
	Busy        sim.Time `json:"busy_ps"`
	BusySeconds float64  `json:"busy_seconds"`
	// Utilization is Busy / (Components × Elapsed) — mean busy fraction
	// per component. For overlappable spans (network, threads) this is
	// occupancy and may exceed 1.
	Utilization float64 `json:"utilization"`
	// MaxUtilization is the busiest single component's fraction.
	MaxUtilization float64 `json:"max_utilization"`
}

// RunTrace is the per-run sim.Tracer. It is handed to exactly one
// engine and read only after that engine finishes.
type RunTrace struct {
	label       string
	bucketWidth sim.Time
	maxSpans    int

	events      int64
	transitions map[string]int64
	buckets     map[int64]int64
	maxTime     sim.Time

	// comps holds components in first-seen order (deterministic export);
	// compsByName indexes them by track name.
	comps       []*component
	compsByName map[string]*component

	spans   []spanRec
	dropped int64
}

type component struct {
	name  string
	class string
	busy  sim.Time
	count int64
}

type spanRec struct {
	comp       *component
	name       string
	start, end sim.Time
	async      bool
}

// Replay makes rt carry src's recorded activity under rt's own label,
// for a run whose simulation is identical to src's and was not
// repeated. src must have finished; the two share its records, so
// neither may record any more.
func (rt *RunTrace) Replay(src *RunTrace) {
	label := rt.label
	*rt = *src
	rt.label = label
}

func (rt *RunTrace) component(track string) *component {
	c, ok := rt.compsByName[track]
	if !ok {
		c = &component{name: track, class: classFor(track)}
		rt.compsByName[track] = c
		rt.comps = append(rt.comps, c)
	}
	return c
}

// Event implements sim.Tracer.
func (rt *RunTrace) Event(t sim.Time) {
	rt.events++
	rt.buckets[int64(t/rt.bucketWidth)]++
	rt.observe(t)
}

// Process implements sim.Tracer.
func (rt *RunTrace) Process(t sim.Time, name, kind string) {
	rt.transitions[kind]++
	rt.observe(t)
}

// Reserve implements sim.Tracer: server reservations become complete
// spans on the server's own track.
func (rt *RunTrace) Reserve(resource string, start, end sim.Time) {
	rt.record(resource, resource, start, end, false)
}

// Span implements sim.Tracer: typed intervals (thread phases, network
// flight time) become async spans, which may overlap within a track.
func (rt *RunTrace) Span(track, name string, start, end sim.Time) {
	rt.record(track, name, start, end, true)
}

func (rt *RunTrace) record(track, name string, start, end sim.Time, async bool) {
	c := rt.component(track)
	c.busy += end - start
	c.count++
	rt.observe(end)
	if rt.maxSpans < 0 {
		return
	}
	if len(rt.spans) >= rt.maxSpans {
		rt.dropped++
		return
	}
	rt.spans = append(rt.spans, spanRec{comp: c, name: name, start: start, end: end, async: async})
}

func (rt *RunTrace) observe(t sim.Time) {
	if t > rt.maxTime {
		rt.maxTime = t
	}
}

// classOrder fixes the rendering order of component classes.
var classOrder = []string{"core", "dma", "dram-slice", "network", "thread", "other"}

// classFor maps a track name to its component class by the naming
// convention of piuma.Machine: mtp* (core issue pipelines), dma*,
// slice* (DRAM slices), net* (network ports), t*/walker* (threads).
func classFor(track string) string {
	switch {
	case strings.HasPrefix(track, "slice"):
		return "dram-slice"
	case strings.HasPrefix(track, "mtp"):
		return "core"
	case strings.HasPrefix(track, "dma"):
		return "dma"
	case strings.HasPrefix(track, "net"):
		return "network"
	case strings.HasPrefix(track, "t"), strings.HasPrefix(track, "walker"):
		return "thread"
	default:
		return "other"
	}
}

func (rt *RunTrace) stats() RunStats {
	s := RunStats{
		Label:        rt.label,
		Elapsed:      rt.maxTime,
		Events:       rt.events,
		Spans:        len(rt.spans),
		DroppedSpans: rt.dropped,
	}
	type agg struct {
		comps   int
		count   int64
		busy    sim.Time
		maxBusy sim.Time
	}
	byClass := make(map[string]*agg)
	for _, c := range rt.comps {
		a, ok := byClass[c.class]
		if !ok {
			a = &agg{}
			byClass[c.class] = a
		}
		a.comps++
		a.count += c.count
		a.busy += c.busy
		if c.busy > a.maxBusy {
			a.maxBusy = c.busy
		}
	}
	for _, class := range classOrder {
		a, ok := byClass[class]
		if !ok {
			continue
		}
		cs := ClassStats{
			Class:       class,
			Components:  a.comps,
			Count:       a.count,
			Busy:        a.busy,
			BusySeconds: a.busy.Seconds(),
		}
		if rt.maxTime > 0 {
			cs.Utilization = float64(a.busy) / (float64(a.comps) * float64(rt.maxTime))
			cs.MaxUtilization = float64(a.maxBusy) / float64(rt.maxTime)
		}
		s.Classes = append(s.Classes, cs)
	}
	return s
}

// Summary renders a compact activity report in the spirit of the old
// sim.Recorder: aggregate totals, then one events-per-bucket sparkline
// per run. SummarySince scopes it to runs recorded after m.
func (p *Profiler) Summary() string { return p.SummarySince(0) }

// SummarySince renders Summary for the runs recorded after m. Nil-safe.
func (p *Profiler) SummarySince(m Mark) string {
	var b strings.Builder
	var events, spawns, finishes int64
	var span sim.Time
	runs := []*RunTrace{}
	if p != nil && int(m) < len(p.runs) {
		runs = p.runs[m:]
	}
	for _, rt := range runs {
		events += rt.events
		spawns += rt.transitions["spawn"]
		finishes += rt.transitions["finish"]
		if rt.maxTime > span {
			span = rt.maxTime
		}
	}
	fmt.Fprintf(&b, "runs=%d events=%d spawns=%d finishes=%d span=%.3gus\n",
		len(runs), events, spawns, finishes,
		float64(span)/float64(sim.Microsecond))
	for _, rt := range runs {
		if line := rt.sparkline(); line != "" {
			fmt.Fprintf(&b, "%-28s |%s|\n", rt.label, line)
		}
	}
	return b.String()
}

// sparkline renders the run's events-per-bucket activity (at most 60
// columns, from the start of the run).
func (rt *RunTrace) sparkline() string {
	if len(rt.buckets) == 0 {
		return ""
	}
	keys := make([]int64, 0, len(rt.buckets))
	for k := range rt.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	const maxCols = 60
	if len(keys) > maxCols {
		keys = keys[:maxCols]
	}
	peak := int64(1)
	for _, k := range keys {
		if rt.buckets[k] > peak {
			peak = rt.buckets[k]
		}
	}
	shades := []byte(" .:-=+*#%@")
	var b strings.Builder
	for _, k := range keys {
		idx := int(rt.buckets[k] * int64(len(shades)-1) / peak)
		b.WriteByte(shades[idx])
	}
	return b.String()
}
