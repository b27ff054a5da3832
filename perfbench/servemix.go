package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/gate"
	"piumagcn/internal/serve"
	"piumagcn/internal/store"
)

const (
	// clients is the closed loop's concurrency, with no think time. One
	// client leaves the gate, the replicas and the collector a core on a
	// 2-vCPU host; two clients kept both cores busy and the latencies
	// then followed the host's other load rather than the request path.
	clients      = 1
	replicas     = 2
	hotTemplates = 8
	hitShare     = 0.7
	// serveEdges is the options' MaxSimEdges (the bench default); the
	// served experiments are analytical, so it only enters the run ID.
	serveEdges = 1 << 17
	// passRequests is one pass's fixed work, split evenly between the
	// clients; each pass starts from a fresh cluster, so every pass
	// serves the same requests against the same state.
	passRequests = 2000
	// slowRequest is the tail the ledger-compaction check looks at.
	slowRequest = 20 * time.Millisecond
	// fsync is the replicas' journal and the gate ledger's policy. Every
	// record is still framed, checksummed and written; only the flush to
	// the device is left out, because on a shared disk its latency swings
	// twofold from minute to minute and would drown the request path.
	fsync = store.SyncNever
)

// mixExperiments are the analytical experiments requests name: each
// miss does about a millisecond of model work, so the request path
// rather than the simulator sets the latency.
var mixExperiments = []string{"fig2", "fig3", "fig9", "fig10"}

type template struct {
	exp  string
	seed int64
}

func (t template) body() []byte {
	return fmt.Appendf(nil, `{"experiment":%q,"options":{"max_sim_edges":%d,"seed":%d}}`, t.exp, serveEdges, t.seed)
}

func (t template) runID() string {
	return serve.RunID(t.exp, bench.Options{MaxSimEdges: serveEdges, Seed: t.seed})
}

// hotSet is the seed's set of repeated templates.
func hotSet(seed int64) []template {
	out := make([]template, hotTemplates)
	for i := range out {
		out[i] = template{exp: mixExperiments[i%len(mixExperiments)], seed: seed*1000 + int64(i)}
	}
	return out
}

// recorder keeps the host spans the traced run records at the client,
// gate and replica boundaries of POST /v1/runs, keyed by request body.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrap times each traced submission a handler serves.
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || req.Method != http.MethodPost || req.URL.Path != "/v1/runs" {
			h.ServeHTTP(w, req)
			return
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(span{Layer: layer, Key: string(body), Start: start, End: time.Now()})
	})
}

// cluster is a gate in front of two journaled replicas, all on loopback.
type cluster struct {
	dir      string
	stores   []*store.Store
	servers  []*serve.Server
	https    []*http.Server
	serving  sync.WaitGroup
	gate     *gate.Gate
	gateURL  string
	replicas []string
}

func startCluster(dir string, rec *recorder) (*cluster, error) {
	c := &cluster{dir: dir}
	for i := 0; i < replicas; i++ {
		name := fmt.Sprintf("b%d", i)
		st, err := store.Open(filepath.Join(dir, name), fsync)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("opening replica store: %w", err)
		}
		c.stores = append(c.stores, st)
		srv := serve.New(serve.Config{Store: st, Replica: name})
		c.servers = append(c.servers, srv)
		url, err := c.listen(rec.wrap("serve", srv.Handler()))
		if err != nil {
			c.close()
			return nil, err
		}
		c.replicas = append(c.replicas, url)
	}
	g, err := gate.New(gate.Config{
		Backends:   c.replicas,
		Policy:     gate.PolicyCacheAffinity,
		Seed:       1,
		DataDir:    filepath.Join(dir, "gate"),
		LedgerSync: fsync,
		// Each pass runs one anti-entropy sweep itself, halfway through
		// its requests, so every pass carries the same sweep work however
		// fast the machine is.
		ReconcileInterval: -1,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.gate = g
	if c.gateURL, err = c.listen(rec.wrap("gate", g.Handler())); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.https = append(c.https, hs)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every server and goroutine the cluster started, waits for
// them, and deletes its data.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(c.https) - 1; i >= 0; i-- {
		c.https[i].Shutdown(ctx) // best effort: the cluster's data is deleted below
	}
	c.serving.Wait()
	if c.gate != nil {
		c.gate.Shutdown()
	}
	for _, s := range c.servers {
		s.Shutdown(ctx) // best effort, as above
	}
	for _, st := range c.stores {
		st.Close() // best effort, as above
	}
	os.RemoveAll(c.dir) // best effort: scratch data under .bench_build
}

// reply is the part of a run resource the checks read.
type reply struct {
	Status string          `json:"status"`
	Report json.RawMessage `json:"report"`
}

// submit posts one run with ?wait=true and checks the reply: 200 and
// done, and for a hot template the warm-up's report bytes.
func submit(hc *http.Client, url string, body []byte, want []byte) ([]byte, error) {
	resp, err := hc.Post(url+"/v1/runs?wait=true", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decoding run: %w", err)
	}
	if r.Status != string(serve.StatusDone) {
		return nil, fmt.Errorf("run status %q", r.Status)
	}
	if len(r.Report) == 0 {
		return nil, errors.New("done run without a report")
	}
	if want != nil && !bytes.Equal(r.Report, want) {
		return nil, errors.New("cached report differs from its warm-up")
	}
	return r.Report, nil
}

// setUp starts a cluster and warms the hot set, returning the warm-up
// report of each template.
func setUp(base string, hot []template, hc *http.Client, rec *recorder) (*cluster, [][]byte, error) {
	dir, err := os.MkdirTemp(base, "cluster-")
	if err != nil {
		return nil, nil, err
	}
	c, err := startCluster(dir, rec)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	warm := make([][]byte, len(hot))
	for i, t := range hot {
		if warm[i], err = submit(hc, c.gateURL, t.body(), nil); err != nil {
			c.close()
			return nil, nil, fmt.Errorf("warming %s seed %d: %w", t.exp, t.seed, err)
		}
	}
	return c, warm, nil
}

// request is one measured request as its client saw it.
type request struct {
	t          template
	hot        bool
	start, end time.Time
	err        error
}

// sizeSample is the ledger and journal size after one request.
type sizeSample struct {
	at              time.Time
	ledger, journal int64
}

// servePass is one pass of the fixed work: a fresh cluster, warmed, then
// passRequests requests from the closed loop.
type servePass struct {
	setup, wall time.Duration
	warm        string
	reqs        []request
	mem         memSnapshot
	// The rest is recorded in traced passes only.
	samples    []sizeSample
	spans      []span
	counters   map[string]float64
	wait, exec []float64
}

func runServeMix(ctx context.Context, c config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	base := filepath.Join(outDir, "data")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients * 2}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	hot := hotSet(c.seed)

	// Each pass is checked and reduced to its figures as soon as it ends,
	// and an untraced pass's requests are dropped then, so the heap (and
	// the peak RSS) does not grow with the number of passes. Each latency
	// figure is the median over passes of that pass's percentile, so one
	// pass disturbed by the host moves it little.
	var traced []servePass
	var untraced int
	var setups, passWalls, p50s, p99s []float64
	deadline := time.Now().Add(c.seconds)
	for i := 0; keepGoing(c, deadline, untraced, len(traced)); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		isTraced := c.trace && i%2 == 1
		p, err := runServePass(ctx, c.seed, base, hc, hot, isTraced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setup.Seconds())
		if out.digest == "" {
			out.digest = p.warm
		} else if p.warm != out.digest {
			out.failed++
			out.note("failed: warm-up digest %s differs from %s", p.warm, out.digest)
		}
		lat := make([]float64, len(p.reqs))
		for i, r := range p.reqs {
			lat[i] = ms(r.end.Sub(r.start))
			out.attempted++
			if r.err != nil {
				out.failed++
				if out.failed <= 5 {
					out.note("failed: %s seed %d: %v", r.t.exp, r.t.seed, r.err)
				}
			}
		}
		if isTraced {
			traced = append(traced, p)
			continue
		}
		p99, ok := tail(lat, 0.99)
		if !ok {
			return nil, fmt.Errorf("only %d requests in a pass, too few for a p99", len(lat))
		}
		untraced++
		passWalls = append(passWalls, p.wall.Seconds())
		p50s = append(p50s, median(lat))
		p99s = append(p99s, p99)
	}
	out.set("setup_s", median(setups))
	out.set("wall_s", median(passWalls))
	out.set("req_p50_ms", median(p50s))
	out.set("req_p99_ms", median(p99s))
	out.note("serve-mix: %d passes of %d requests over %d clients; setup_s is cluster start plus hot-set warm-up", untraced, passRequests, clients)
	out.note("serve-mix: pass wall_s %.3f, p50 ms %.3f, p99 ms %.3f", passWalls, p50s, p99s)
	if !c.trace {
		return out, nil
	}

	var reqs []request
	var spans []span
	var wait, exec, gcs, pauses, tracedWalls []float64
	counters := map[string]float64{}
	for _, p := range traced {
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		reqs = append(reqs, p.reqs...)
		spans = append(spans, p.spans...)
		wait = append(wait, p.wait...)
		exec = append(exec, p.exec...)
		gcs = append(gcs, float64(p.mem.numGC))
		pauses = append(pauses, float64(p.mem.pauseNs)/1e6)
		for k, v := range p.counters {
			counters[k] += v / float64(len(traced))
		}
		for k, v := range storeMetrics(p) {
			out.metrics[k] += v / float64(len(traced))
		}
	}
	out.set("serve.cache_hit_ratio", counters["piumaserve_cache_hits_total"]/passRequests)
	out.set("gate.failovers", counters["piumagate_failovers_total"])
	out.set("gate.proxy_errors", counters["piumagate_proxy_errors_total"])
	out.set("gate.admission_rejected", counters["piumagate_admission_rejected_total"])
	out.set("gate.reconcile_sweeps", counters["piumagate_reconcile_sweeps_total"])
	out.set("runtime.gc_cycles", median(gcs))
	out.set("runtime.gc_pause_ms", median(pauses))
	out.set("serve.queue_wait_ms_p50", median(wait))
	out.set("serve.exec_ms_p50", median(exec))
	out.set("trace.overhead", median(tracedWalls)/median(passWalls))
	out.note("serve-mix: counts, gate.* and runtime.* are per pass of %d requests (median or mean of %d traced passes)", passRequests, len(traced))
	reportLayers(out, reqs, spans)
	return out, nil
}

// runServePass starts a fresh cluster, warms the hot set, and runs the
// pass's fixed request sequence through the closed loop, with one
// anti-entropy sweep halfway. A traced pass also records spans, store
// sizes, run lifecycles and counters.
func runServePass(ctx context.Context, seed int64, base string, hc *http.Client, hot []template, traced bool) (servePass, error) {
	var p servePass
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	// Every pass starts from a collected heap, so neither its timings nor
	// the peak RSS depend on how much garbage earlier passes left.
	runtime.GC()
	t0 := time.Now()
	cl, warm, err := setUp(base, hot, hc, rec)
	if err != nil {
		return p, err
	}
	p.setup = time.Since(t0)
	defer cl.close()
	records := make([][]byte, len(hot))
	for i, t := range hot {
		records[i] = append([]byte(t.runID()+"|"), warm[i]...)
	}
	p.warm = digest(records)

	var before map[string]float64
	if traced {
		if before, err = scrape(hc, cl); err != nil {
			return p, err
		}
		rec.on.Store(true)
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	m0 := readMem()
	start := time.Now()
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(id)))
			fresh := seed*1_000_000_000 + int64(id+1)*100_000_000
			for n := 0; n < passRequests/clients && ctx.Err() == nil; n++ {
				r := request{hot: rng.Float64() < hitShare}
				var want []byte
				if r.hot {
					i := rng.Intn(len(hot))
					r.t, want = hot[i], warm[i]
				} else {
					r.t = template{exp: mixExperiments[rng.Intn(len(mixExperiments))], seed: fresh + int64(n)}
				}
				body := r.t.body()
				r.start = time.Now()
				_, r.err = submit(hc, cl.gateURL, body, want)
				r.end = time.Now()
				var s sizeSample
				var wait, exec float64
				var lifecycle bool
				if traced {
					rec.add(span{Layer: "client", Key: string(body), Start: r.start, End: r.end})
					s = sizeSample{at: r.end, ledger: cl.gate.Ledger().SizeBytes(), journal: cl.journalBytes()}
					if !r.hot && r.err == nil {
						wait, exec, lifecycle = cl.lifecycle(r.t.runID())
					}
				}
				mu.Lock()
				p.reqs = append(p.reqs, r)
				due := len(p.reqs) == passRequests/2
				if traced {
					p.samples = append(p.samples, s)
					if lifecycle {
						p.wait = append(p.wait, wait)
						p.exec = append(p.exec, exec)
					}
				}
				mu.Unlock()
				if due {
					// The client that completes the pass's middle request
					// runs the sweep before its next request, so the sweep
					// counts in wall_s but overlaps no request of its own.
					cl.gate.ReconcileOnce(ctx)
				}
			}
		}(id)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.mem = readMem().sub(m0)
	if traced {
		rec.on.Store(false)
		after, err := scrape(hc, cl)
		if err != nil {
			return p, err
		}
		p.counters = map[string]float64{}
		for k, v := range after {
			p.counters[k] = v - before[k]
		}
		p.spans = rec.spans
	}
	return p, nil
}

// lifecycle reads a finished run's queue wait and execution time, in
// ms, from whichever replica holds it.
func (c *cluster) lifecycle(runID string) (wait, exec float64, ok bool) {
	for _, srv := range c.servers {
		if v, found := srv.Get(runID); found && !v.Started.IsZero() && !v.Finished.IsZero() {
			return ms(v.Started.Sub(v.Submitted)), ms(v.Finished.Sub(v.Started)), true
		}
	}
	return 0, 0, false
}

func (c *cluster) journalBytes() int64 {
	var n int64
	for _, s := range c.servers {
		n += s.JournalBytes()
	}
	return n
}

// storeMetrics derives one traced pass's journal and ledger metrics
// from the sizes sampled after each request: growth is bytes written, a
// drop in the ledger is a compaction.
func storeMetrics(p servePass) map[string]float64 {
	samples := append([]sizeSample(nil), p.samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].at.Before(samples[j].at) })
	var journal, ledger int64
	var compactions []span
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if d := b.journal - a.journal; d > 0 {
			journal += d
		}
		if d := b.ledger - a.ledger; d > 0 {
			ledger += d
		} else if d < 0 {
			compactions = append(compactions, span{Start: a.at, End: b.at})
		}
	}
	misses := 0
	var slow, withCompaction int
	for _, r := range p.reqs {
		if !r.hot {
			misses++
		}
		if r.end.Sub(r.start) <= slowRequest {
			continue
		}
		slow++
		for _, c := range compactions {
			if c.Start.Before(r.end) && c.End.After(r.start) {
				withCompaction++
				break
			}
		}
	}
	share := 0.0
	if slow > 0 {
		share = float64(withCompaction) / float64(slow)
	}
	return map[string]float64{
		"store.journal_bytes_per_miss":     float64(journal) / float64(max(misses, 1)),
		"store.ledger_bytes_per_req":       float64(ledger) / float64(max(len(p.reqs), 1)),
		"store.ledger_compactions":         float64(len(compactions)),
		"store.slow_requests":              float64(slow),
		"store.slow_with_compaction_share": share,
	}
}

// reportLayers derives the replica, gate and run-lifecycle metrics from
// the traced requests' spans.
func reportLayers(out *outcome, reqs []request, spans []span) {
	hotKeys := map[string]bool{}
	for _, r := range reqs {
		if r.hot {
			hotKeys[string(r.t.body())] = true
		}
	}
	var gates, backends []span
	var hit, miss []float64
	for _, s := range spans {
		switch s.Layer {
		case "gate":
			gates = append(gates, s)
		case "serve":
			backends = append(backends, s)
			if hotKeys[s.Key] {
				hit = append(hit, ms(s.dur()))
			} else {
				miss = append(miss, ms(s.dur()))
			}
		}
	}
	out.spans = spans
	setTail := func(name string, xs []float64, q float64) {
		if v, ok := tail(xs, q); ok {
			out.set(name, v)
		}
	}
	out.set("serve.hit_ms_p50", median(hit))
	setTail("serve.hit_ms_p99", hit, 0.99)
	out.set("serve.miss_ms_p50", median(miss))
	setTail("serve.miss_ms_p99", miss, 0.99)
	self := msAll(selfTimes(gates, backends))
	out.set("gate.self_ms_p50", median(self))
	setTail("gate.self_ms_p99", self, 0.99)

	out.note("serve-mix: %d traced requests, %d gate and %d replica spans", len(reqs), len(gates), len(backends))
}

// scrape sums every counter series by name across the gate's and the
// replicas' /metrics.
func scrape(hc *http.Client, cl *cluster) (map[string]float64, error) {
	sums := map[string]float64{}
	for _, u := range append([]string{cl.gateURL}, cl.replicas...) {
		resp, err := hc.Get(u + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			name, rest, ok := strings.Cut(line, " ")
			if i := strings.IndexByte(line, '{'); i >= 0 {
				name = line[:i]
				_, rest, ok = strings.Cut(line[strings.LastIndexByte(line, '}')+1:], " ")
			}
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				sums[name] += v
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("reading %s/metrics: %w", u, err)
		}
	}
	return sums, nil
}
