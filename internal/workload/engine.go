package workload

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/serve"
)

// Request is one scheduled request as handed to the client.
type Request struct {
	Seq        int64
	Offset     time.Duration // scheduled issue offset from run start
	Tenant     string
	Class      string
	Experiment string
	Options    bench.Options
	SLO        time.Duration
}

// Response is a client's outcome for one request. A zero Latency tells
// the engine to use its own clock measurement; deterministic fake
// clients set it explicitly.
type Response struct {
	HTTPStatus int
	RunStatus  string
	RunID      string
	Err        string
	Latency    time.Duration
	// Retried429 counts how many 429 responses this request absorbed by
	// honoring Retry-After before the final outcome above.
	Retried429 int64
}

// Client executes one request. Implementations must be safe for
// concurrent use: an open-loop run dispatches every request at its
// scheduled time regardless of how many are still in flight, and a
// closed-loop run calls Do from every worker.
type Client interface {
	Do(ctx context.Context, req Request) Response
}

// Clock paces the engine. The default is the wall clock; tests inject a
// virtual clock so determinism tests do not depend on scheduler timing.
type Clock interface {
	// Start marks the run epoch.
	Start()
	// Since is the elapsed time from the epoch.
	Since() time.Duration
	// SleepUntil blocks until the given offset from the epoch (false if
	// the context was canceled first). Offsets in the past return
	// immediately.
	SleepUntil(ctx context.Context, offset time.Duration) bool
}

// wallClock is the real-time Clock.
type wallClock struct{ epoch time.Time }

func (c *wallClock) Start()               { c.epoch = time.Now() }
func (c *wallClock) Since() time.Duration { return time.Since(c.epoch) }
func (c *wallClock) SleepUntil(ctx context.Context, offset time.Duration) bool {
	d := offset - c.Since()
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// shedErr marks a synthetic response for a request the engine refused
// to dispatch because MaxInFlight was reached. Sheds count as
// backpressure (the generator protecting itself is the same signal as
// the server protecting itself).
const shedErr = "workload: shed (max in-flight reached)"

// defaultMaxInFlight bounds concurrent dispatches; an open-loop
// generator against a stalled server would otherwise grow goroutines
// without bound.
const defaultMaxInFlight = 512

// Engine runs one scenario against a Client: it issues requests open
// loop at their scheduled offsets or closed loop from a fixed worker
// population, records the trace (when a TraceWriter is attached) and
// reduces the outcomes to a Report.
type Engine struct {
	Scenario Scenario
	Client   Client
	// Clock paces issue times (nil = wall clock).
	Clock Clock
	// Trace, when non-nil, records the run.
	Trace *TraceWriter
	// MaxInFlight bounds concurrent open-loop dispatches (0 = 512;
	// negative = unbounded). Requests over the cap settle as sheds.
	MaxInFlight int
}

// tenantPicker draws a request's tenant by inverse CDF over the
// cumulative tenant weights, then one of that tenant's templates: two
// draws from the caller's generator, in that order.
type tenantPicker struct {
	sc  Scenario
	cum []float64
}

func newTenantPicker(sc Scenario) tenantPicker {
	p := tenantPicker{sc: sc}
	total := 0.0
	for _, t := range sc.Tenants {
		total += t.Weight
		p.cum = append(p.cum, total)
	}
	return p
}

// draw returns an unsequenced, unscheduled request.
func (p tenantPicker) draw(rng *rand.Rand) Request {
	ti := sort.SearchFloat64s(p.cum, rng.Float64()*p.cum[len(p.cum)-1])
	if ti >= len(p.sc.Tenants) {
		ti = len(p.sc.Tenants) - 1
	}
	t := p.sc.Tenants[ti]
	return Request{
		Tenant:     t.Name,
		Class:      t.Class,
		Experiment: t.Experiment,
		Options:    p.sc.TemplateOptions(ti, rng.Intn(t.Templates)),
		SLO:        t.SLO(),
	}
}

// schedule derives the full deterministic open-loop schedule up front.
// Two independent generators keep the draw streams stable: the arrival
// rng is consumed only by inter-arrival draws, the pick rng only by
// tenant/template selection, so adding a tenant does not perturb the
// arrival times.
func schedule(sc Scenario) ([]Request, error) {
	arrivals, err := NewArrivals(sc, rand.New(rand.NewSource(sc.Seed)))
	if err != nil {
		return nil, err
	}
	picker := newTenantPicker(sc)
	pick := rand.New(rand.NewSource(sc.Seed + 1))
	var reqs []Request
	for {
		offset, ok := arrivals.Next()
		if !ok {
			return reqs, nil
		}
		req := picker.draw(pick)
		req.Offset = offset
		reqs = append(reqs, req)
	}
}

// Run executes the scenario and returns its report. Canceling the
// context stops issuing new requests; already-dispatched requests run
// to completion under their own context handling.
func (e *Engine) Run(ctx context.Context) (*Report, error) {
	sc := e.Scenario.normalized()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Mode == ModeClosed {
		return e.closedLoop(ctx, sc)
	}
	reqs, err := schedule(sc)
	if err != nil {
		return nil, err
	}
	return e.openLoop(ctx, reqs, nil)
}

// Replay re-executes a recorded trace's request schedule against the
// client. The recorded request payload bytes are re-framed verbatim, so
// a replayed trace's request stream is byte-identical to its source.
func (e *Engine) Replay(ctx context.Context, tr *Trace) (*Report, error) {
	if len(tr.Requests) != len(tr.RawRequests) {
		return nil, fmt.Errorf("workload: trace requests (%d) and raw payloads (%d) out of sync", len(tr.Requests), len(tr.RawRequests))
	}
	e.Scenario = tr.Scenario
	byTenant := make(map[string]Tenant, len(tr.Scenario.Tenants))
	for _, t := range tr.Scenario.normalized().Tenants {
		byTenant[t.Name] = t
	}
	reqs := make([]Request, len(tr.Requests))
	for i, r := range tr.Requests {
		reqs[i] = Request{
			Offset:     r.Offset(),
			Tenant:     r.Tenant,
			Class:      r.Class,
			Experiment: r.Experiment,
			Options:    r.Options,
			SLO:        byTenant[r.Tenant].SLO(),
		}
	}
	rep, err := e.openLoop(ctx, reqs, tr.RawRequests)
	if err != nil {
		return nil, err
	}
	rep.Replayed = true
	return rep, nil
}

// openLoop issues each request at its scheduled offset, never waiting
// for capacity: over MaxInFlight a request settles at once as a shed.
// raw, when non-nil, holds the recorded request payloads to re-frame
// verbatim (replay).
func (e *Engine) openLoop(ctx context.Context, reqs []Request, raw [][]byte) (*Report, error) {
	r, err := e.newRunner(e.Scenario)
	if err != nil {
		return nil, err
	}
	maxInFlight := e.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = defaultMaxInFlight
	}
	var slots chan struct{}
	if maxInFlight > 0 {
		slots = make(chan struct{}, maxInFlight)
	}
	return r.drive(func(settle func(TraceResponse)) {
		for i := range reqs {
			if !r.clock.SleepUntil(ctx, reqs[i].Offset) {
				return // canceled: the rest are never issued
			}
			var payload []byte
			if raw != nil {
				payload = raw[i]
			}
			req, ok := r.issue(reqs[i], payload, false)
			if !ok {
				return
			}
			if slots != nil {
				select {
				case slots <- struct{}{}:
				default:
					settle(TraceResponse{Seq: req.Seq, Err: shedErr})
					continue
				}
			}
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				resp := r.do(ctx, req)
				if slots != nil {
					<-slots
				}
				settle(resp)
			}()
		}
	})
}

// closedLoop runs Concurrency workers that each issue a request, wait
// for its response, think (exponential with mean Think), and repeat
// until the duration horizon or MaxRequests. Issue times depend on
// server latency, which is the point of a closed loop, but every random
// choice (tenant, template, think draw) comes from a per-worker seeded
// generator, and the trace records actual issue offsets so a closed
// trace replays as an open-loop schedule.
func (e *Engine) closedLoop(ctx context.Context, sc Scenario) (*Report, error) {
	r, err := e.newRunner(sc)
	if err != nil {
		return nil, err
	}
	picker := newTenantPicker(sc)
	return r.drive(func(settle func(TraceResponse)) {
		for w := 0; w < sc.Concurrency; w++ {
			// Offset each worker's stream far from the open-loop arrival
			// and pick streams so the draw sequences never overlap.
			rng := rand.New(rand.NewSource(sc.Seed + int64(w+1)*1_000_003))
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				for ctx.Err() == nil && r.clock.Since() < sc.Duration() {
					req, ok := r.issue(picker.draw(rng), nil, true)
					if !ok {
						return
					}
					settle(r.do(ctx, req))
					if sc.ThinkMS > 0 {
						d := time.Duration(rng.ExpFloat64() * float64(sc.Think()))
						if !r.clock.SleepUntil(ctx, r.clock.Since()+d) {
							return
						}
					}
				}
			}()
		}
	})
}

// runner is one run's issue/settle/report path, shared by the open,
// closed and replay drivers.
type runner struct {
	e     *Engine
	sc    Scenario
	clock Clock
	wg    sync.WaitGroup // dispatched requests (open) or workers (closed)

	mu      sync.Mutex
	reqs    []TraceRequest
	resps   []TraceResponse
	settled []bool
	err     error // first trace-write failure; nothing issues after it
}

func (e *Engine) newRunner(sc Scenario) (*runner, error) {
	if e.Client == nil {
		return nil, fmt.Errorf("workload: engine needs a client")
	}
	clock := e.Clock
	if clock == nil {
		clock = &wallClock{}
	}
	return &runner{e: e, sc: sc, clock: clock}, nil
}

// issue assigns req the next seq and writes its request frame under one
// lock, so seq order and trace frame order agree. payload, when
// non-nil, is a recorded frame re-framed verbatim. A closed-loop
// request is stamped with its actual issue offset and refused past
// MaxRequests.
func (r *runner) issue(req Request, payload []byte, closed bool) (Request, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return req, false
	}
	req.Seq = int64(len(r.reqs))
	if closed {
		if r.sc.MaxRequests > 0 && req.Seq >= r.sc.MaxRequests {
			return req, false
		}
		req.Offset = r.clock.Since()
	}
	tr := TraceRequest{
		Kind:       "req",
		Seq:        req.Seq,
		OffsetUS:   req.Offset.Microseconds(),
		Tenant:     req.Tenant,
		Class:      req.Class,
		Experiment: req.Experiment,
		Options:    req.Options,
	}
	if r.e.Trace != nil {
		if payload != nil {
			r.err = r.e.Trace.WriteRequestRaw(payload)
		} else {
			r.err = r.e.Trace.WriteRequest(tr)
		}
		if r.err != nil {
			return req, false
		}
	}
	r.reqs = append(r.reqs, tr)
	r.resps = append(r.resps, TraceResponse{})
	r.settled = append(r.settled, false)
	return req, true
}

// do runs one issued request, measuring its latency on the run's clock
// when the client reports none.
func (r *runner) do(ctx context.Context, req Request) TraceResponse {
	start := r.clock.Since()
	resp := r.e.Client.Do(ctx, req)
	if resp.Latency == 0 {
		resp.Latency = r.clock.Since() - start
	}
	return TraceResponse{
		Seq:        req.Seq,
		HTTPStatus: resp.HTTPStatus,
		RunStatus:  resp.RunStatus,
		RunID:      resp.RunID,
		LatencyUS:  resp.Latency.Microseconds(),
		Err:        resp.Err,
		Retried429: resp.Retried429,
	}
}

// drive starts the clock, runs loop with settle (which records one
// request's outcome) and waits for every request loop issued. Response
// frames are then written in seq order, so the trace layout is a pure
// function of the outcomes (not of completion order), and the run
// reduces to its report.
//
// settle is a closure, not a method: piumalint's detertaint follows
// static calls only, and it keeps one taint set for all of a
// function's results, so serve.Client's Retry-After clock read taints
// every SubmitAndWaitInfo result. A static path from HTTPClient's
// responses to the trace frames would spread that false positive into
// every internal/store writer.
func (r *runner) drive(loop func(settle func(TraceResponse))) (*Report, error) {
	r.clock.Start()
	loop(func(resp TraceResponse) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.resps[resp.Seq] = resp
		r.settled[resp.Seq] = true
	})
	r.wg.Wait()
	elapsed := r.clock.Since()
	if r.err != nil {
		return nil, r.err
	}
	var resps []TraceResponse
	for seq, ok := range r.settled {
		if !ok {
			continue
		}
		if r.e.Trace != nil {
			if err := r.e.Trace.WriteResponse(r.resps[seq]); err != nil {
				return nil, err
			}
		}
		resps = append(resps, r.resps[seq])
	}
	return BuildReport(r.sc, r.reqs, resps, elapsed), nil
}

// HTTPClient adapts serve.Client to the engine: each request becomes a
// blocking POST /v1/runs?wait=true carrying the tenant's SLO class.
type HTTPClient struct {
	C *serve.Client
	// Timeout bounds one request (0 = no per-request deadline). The
	// deadline also rides the X-Piuma-Deadline-Ms header end to end, so
	// the serving tier stops burning simulation time the moment the
	// generator gives up.
	Timeout time.Duration
	// Retry429 is how many times a 429 (admission control, queue full)
	// is retried after honoring the response's Retry-After hint — the
	// generator treating backpressure as a schedule, not a failure
	// (0 = default 2; negative disables).
	Retry429 int
}

func (h *HTTPClient) retry429() int {
	switch {
	case h.Retry429 < 0:
		return 0
	case h.Retry429 == 0:
		return 2
	default:
		return h.Retry429
	}
}

// Do submits the request and classifies the outcome, absorbing up to
// retry429 rounds of 429 backpressure along the way.
func (h *HTTPClient) Do(ctx context.Context, req Request) Response {
	if h.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.Timeout)
		defer cancel()
	}
	var retried int64
	for attempt := 0; ; attempt++ {
		res, status, retryAfter, err := h.C.SubmitAndWaitInfo(ctx, req.Experiment, req.Options, req.Class)
		if err != nil {
			return Response{Err: err.Error(), Retried429: retried}
		}
		if status == http.StatusTooManyRequests && attempt < h.retry429() {
			// Honor the server's own pacing hint, plus deterministic
			// per-(seq,attempt) jitter so a herd of rejected requests
			// does not come back in lockstep.
			d := retryAfter
			if d <= 0 {
				d = 100 * time.Millisecond
			}
			d += jitter429(req.Seq, attempt)
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return Response{HTTPStatus: status, Retried429: retried}
			case <-t.C:
			}
			retried++
			continue
		}
		return Response{
			HTTPStatus: status,
			RunStatus:  string(res.Status),
			RunID:      res.ID,
			Err:        res.Error,
			Retried429: retried,
		}
	}
}

// jitter429 derives the 429-retry jitter in [0, 50ms) from the request
// sequence and attempt via FNV-1a, so retry timing is a pure function
// of the schedule rather than of shared rng state.
func jitter429(seq int64, attempt int) time.Duration {
	h := uint64(1469598103934665603)
	for _, v := range []uint64{uint64(seq), uint64(attempt)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return time.Duration(h % uint64(50*time.Millisecond))
}
