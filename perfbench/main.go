// Command perfbench is the repository benchmark. It runs one workload for
// a fixed time, checks every operation's output, and prints one JSON
// result line: the end-to-end metrics of an untraced run (--trace 0) or
// the per-layer metrics of a traced run (--trace 1).
//
//	bash perfbench/run.sh --workload loop-kernel --seed 7 --seconds 15 --trace 0
//
// Workloads, each a loop of passes of fixed work for --seconds:
//
//	dma-sweep    bench fig6 then fig7 on the healthy machine: 109
//	             DMA-kernel sweep points, serially, 2^13-edge graph
//	loop-kernel  kernels.Run(loop-unrolled, 8 cores, K=256), one call
//	             per operation; bypasses the bench sweep layer
//	serve-mix    a fresh gate (cache-affinity, intake ledger) and two
//	             journaled replicas (no fsync) per pass, then 2000
//	             POST /v1/runs?wait=true from 1 closed-loop client: 70%
//	             a warmed hot set, 30% fresh-seed analytical misses
//
// End-to-end metrics (--trace 0), on every workload: setup_s (graph
// generation, or cluster start plus warm-up; median of several),
// wall_s (median pass), peak_rss_mb, and req_p50_ms / req_p99_ms, the
// latency of one request (serve-mix; the median over passes of each
// pass's percentile), sweep point (dma-sweep; the tail
// is the p90, as a run holds too few points for a p99) or call
// (loop-kernel; both are the median call).
//
// Per-layer metrics (--trace 1) and the end-to-end metric each should
// move, on the workload named:
//
//	sim.*, kernels.*  wall_s on loop-kernel and dma-sweep; nothing on serve-mix
//	piuma.*           exact model counts; a simulator-speed change keeps them
//	bench.*           wall_s on dma-sweep only
//	ogb.generate_s    setup_s on both simulator workloads
//	serve.*           req_p50_ms (hits) and req_p99_ms (misses) on serve-mix
//	store.*, gate.*   req_p99_ms (and req_p50_ms for gate) on serve-mix
//	runtime.*         wall_s and req_p99_ms
//	trace.overhead    traced over untraced pass time; end-to-end figures
//	                  always come from untraced runs
//
// A per-layer metric a workload does not exercise reads 0. Every layer
// is measured from outside, by timing calls into its public functions
// and counting simulator activity through sim.Tracer and obs.Profiler.
// Every operation's output is checked, and sim_digest hashes every
// simulated result (served reports on serve-mix): it must repeat across
// passes and runs of one seed. Inputs derive from --seed alone.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds everything a run leaves behind, relative to the checkout
// root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// endToEnd and perLayer name every metric with its unit; they mirror
// BENCHMARK.json (stats_test.go checks that they agree).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
}

var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.switches", "count"},
	{"sim.procs", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"kernels.ns_per_edge", "ns"},
	{"kernels.allocs_per_edge", "count"},
	{"kernels.bytes_per_edge", "B"},
	{"kernels.sim_us", "us"},
	{"kernels.gflops", "GFLOP/s"},
	{"kernels.model_ratio", "ratio"},
	{"kernels.nnz_wait_share", "ratio"},
	{"kernels.dma_queue_share", "ratio"},
	{"kernels.barrier_share", "ratio"},
	{"piuma.slice_reservations", "count"},
	{"piuma.mtp_reservations", "count"},
	{"piuma.dma_reservations", "count"},
	{"piuma.remote_reads", "count"},
	{"piuma.slice_util", "ratio"},
	{"bench.points", "count"},
	{"bench.point_ms_p50", "ms"},
	{"bench.point_ms_p90", "ms"},
	{"bench.self_s", "s"},
	{"bench.parallelism", "ratio"},
	{"ogb.generate_s", "s"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.hit_ms_p99", "ms"},
	{"serve.miss_ms_p50", "ms"},
	{"serve.miss_ms_p99", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"store.journal_bytes_per_miss", "B"},
	{"store.ledger_bytes_per_req", "B"},
	{"store.ledger_compactions", "count"},
	{"store.slow_requests", "count"},
	{"store.slow_with_compaction_share", "ratio"},
	{"gate.self_ms_p50", "ms"},
	{"gate.self_ms_p99", "ms"},
	{"gate.failovers", "count"},
	{"gate.proxy_errors", "count"},
	{"gate.admission_rejected", "count"},
	{"gate.reconcile_sweeps", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead", "ratio"},
}

type metricDef struct{ Name, Unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int64
	// digest hashes every simulated result (or served report) of one
	// pass of the workload's fixed work; it must repeat across passes,
	// runs and trace modes for one seed.
	digest  string
	metrics map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
	// spans are the run's host-time spans, written out at the end.
	spans []span
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

type workloadFunc func(ctx context.Context, c config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"dma-sweep":   runDMASweep,
	"loop-kernel": runLoopKernel,
	"serve-mix":   runServeMix,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: dma-sweep, loop-kernel or serve-mix")
		seed    = flag.Int64("seed", 7, "seed every input derives from")
		seconds = flag.Float64("seconds", 15, "measured time of the run")
		trace   = flag.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (valid: dma-sweep, loop-kernel, serve-mix)", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	c := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}
	out, err := fn(context.Background(), c)
	if err != nil {
		fail(err)
	}
	if out.attempted < 1 {
		fail(errors.New("no operation completed"))
	}
	if rss, err := peakRSSMB(); err != nil {
		fail(err)
	} else {
		out.set("peak_rss_mb", rss)
	}
	if ok, err := checkDigest(c, out.digest); err != nil {
		fail(err)
	} else if !ok {
		out.failed++
		out.note("sim_digest %s differs from an earlier run of this seed", out.digest)
	}
	if c.trace {
		if err := writeTrace(c, out.spans); err != nil {
			fail(err)
		}
	}

	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && !c.trace {
			fail(fmt.Errorf("workload %s did not measure %s", c.workload, d.Name))
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	fmt.Printf("sim_digest %s\n", out.digest)
	fmt.Printf("operations attempted %d failed %d\n", out.attempted, out.failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc/self/status")
}

// checkDigest compares the run's digest with the first one recorded for
// this workload and seed in this checkout, recording it if none is.
func checkDigest(c config, d string) (bool, error) {
	path := filepath.Join(outDir, fmt.Sprintf("digest-%s-seed%d", c.workload, c.seed))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return true, os.WriteFile(path, []byte(d+"\n"), 0o644)
	}
	if err != nil {
		return false, fmt.Errorf("reading digest: %w", err)
	}
	return strings.TrimSpace(string(prev)) == d, nil
}

// writeTrace writes the run's host spans as a Chrome trace (one track
// per layer), loadable in Perfetto.
func writeTrace(c config, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}
	tids := map[string]int{}
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
		}
		events = append(events, event{
			Name: s.Layer, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]string{"key": s.Key},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
	return os.WriteFile(path, b, 0o644)
}

// memSnapshot is the part of runtime.MemStats the per-layer metrics use.
type memSnapshot struct {
	mallocs, bytes, numGC uint64
	pauseNs               uint64
}

func readMem() memSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnapshot{mallocs: m.Mallocs, bytes: m.TotalAlloc, numGC: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}

func (a memSnapshot) sub(b memSnapshot) memSnapshot {
	return memSnapshot{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, numGC: a.numGC - b.numGC, pauseNs: a.pauseNs - b.pauseNs}
}
