// Package serve turns the bench experiment registry into an always-on
// characterization service: a JSON HTTP API over a bounded job queue
// and worker pool, with singleflight-style deduplication and a
// content-addressed result cache so identical submissions under heavy
// traffic collapse into a single simulation.
//
// The lifecycle of a submission:
//
//	POST /v1/runs ── RunID(experiment, options) ──┐
//	                                              ├─ existing run? → dedup / cache hit
//	                                              └─ new run ─ bounded queue ─ worker pool
//	                                                           (full → 429, draining → 503)
//
// Run IDs are content addresses: the same (experiment ID, Options)
// pair always maps to the same run, which is what makes deduplication
// and caching a single map lookup. Experiments execute under a context
// derived from the server's base context, so Shutdown cancels in-flight
// simulations and the bench runners (which check their context between
// sweep points) return promptly.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/obs"
	"piumagcn/internal/store"
)

// Sentinel errors; the HTTP handlers map them onto status codes.
var (
	ErrUnknownExperiment = errors.New("unknown experiment")
	ErrInvalidOptions    = errors.New("invalid options")
	ErrQueueFull         = errors.New("job queue full")
	ErrDraining          = errors.New("server draining")
	ErrUnknownRun        = errors.New("unknown run")
)

// Clock abstracts wall time so run lifecycle timestamps — which are
// journaled and surfaced in RunViews — can be pinned by tests and
// deterministic harnesses (mirrors gate.Clock).
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Config tunes the service. The zero value is usable: every field has
// a sensible default applied by New.
type Config struct {
	// Workers is the size of the simulation worker pool
	// (default: half the CPUs, at least 2).
	Workers int
	// QueueDepth bounds the number of accepted-but-not-running runs;
	// submissions beyond it are rejected with ErrQueueFull (default 16).
	QueueDepth int
	// CacheCap bounds how many completed reports are kept for cache
	// hits; the oldest completions are evicted first (default 128).
	CacheCap int
	// RunTimeout bounds a single experiment execution (0 = unbounded).
	// A run killed by this deadline reports the distinct "timeout"
	// status (with a partial report of its checkpointed sweep points),
	// not "canceled".
	RunTimeout time.Duration
	// Experiments is the served registry (default bench.All()). Tests
	// inject synthetic experiments here.
	Experiments []bench.Experiment
	// Store, when non-nil, makes the service crash-safe: every run state
	// transition is journaled through it, completed sweep points are
	// persisted as they land, and New replays the journal — repopulating
	// the result cache and requeueing runs that were in flight when the
	// previous process died. Nil keeps the service fully in-memory,
	// byte-for-byte identical to its pre-durability behavior.
	Store *store.Store
	// Replica, when non-empty, names this serving replica: the HTTP
	// handler stamps it into the X-Piuma-Replica response header so a
	// fan-out front door (internal/gate) can attribute responses to
	// backends. Empty keeps responses byte-identical to a standalone
	// server.
	Replica string
	// Clock injects virtual time for run lifecycle timestamps
	// (submitted/started/finished — the values that reach the journal
	// and RunViews). Nil means wall clock.
	Clock Clock
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = max(2, runtime.GOMAXPROCS(0)/2)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 128
	}
	if c.Experiments == nil {
		c.Experiments = bench.All()
	}
	if c.Clock == nil {
		c.Clock = wallClock{}
	}
	return c
}

// Status is a run's lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
	// StatusCanceled marks a run aborted by a caller (explicit cancel,
	// abandoned waiter, shutdown).
	StatusCanceled Status = "canceled"
	// StatusTimeout marks a run killed by Config.RunTimeout. It is
	// distinct from StatusCanceled: nobody asked for the run to stop —
	// the service did, and the run carries a partial report of whatever
	// sweep points completed before the deadline.
	StatusTimeout Status = "timeout"
)

func (st Status) terminal() bool {
	return st == StatusDone || st == StatusFailed || st == StatusCanceled || st == StatusTimeout
}

// resubmittable reports whether a terminal run's record may be replaced
// by a fresh submission (only successful runs are cached).
func (st Status) resubmittable() bool {
	return st == StatusFailed || st == StatusCanceled || st == StatusTimeout
}

// RunID is the content address of a submission: the same experiment
// and options always yield the same ID, which is what collapses
// identical requests onto one run.
func RunID(experimentID string, o bench.Options) string {
	// Hash a canonical encoding of the whole struct so future Options
	// fields participate in the content address automatically.
	enc, err := json.Marshal(o)
	if err != nil {
		panic(fmt.Sprintf("serve: bench.Options not JSON-encodable: %v", err))
	}
	h := sha256.Sum256([]byte(experimentID + "|" + string(enc)))
	return "r-" + hex.EncodeToString(h[:8])
}

// run is the server-side record of one submission. All mutable fields
// are guarded by Server.mu; done is closed exactly once, on reaching a
// terminal status.
type run struct {
	id   string
	exp  bench.Experiment
	opts bench.Options

	ctx    context.Context
	cancel context.CancelFunc

	// cp is the run's checkpoint, created at submission (or restored
	// from the journal at startup) so recovered runs resume past every
	// sweep point the previous boot completed.
	cp *bench.Checkpoint

	// deadline is the absolute end of the submission's propagated
	// deadline budget (zero when none); limit is the effective execution
	// timeout the worker derived from it and Config.RunTimeout.
	deadline time.Time
	limit    time.Duration

	status Status
	// report is the run's report in its stored form (encodeReport):
	// encoded once when the run finishes, nil when it has none.
	report []byte
	// profile aggregates the run's event-level simulations (per-
	// component utilization); nil until the experiment returns, and for
	// runs canceled before execution.
	profile   *obs.Profile
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	hits      int64
	waiters   int
	// abandonable runs (created by a synchronous ?wait=true request and
	// never re-requested asynchronously) are canceled when their last
	// waiter disconnects.
	abandonable bool

	done chan struct{}
}

// RunView is an immutable snapshot of a run, safe to use after
// Server.mu is released.
type RunView struct {
	ID         string
	Experiment string
	Options    bench.Options
	Status     Status
	// ReportJSON is the run's report as the "report" member of its run
	// resource carries it (nil when the run has none); it decodes into a
	// bench.Report. The slice is shared: treat it as read-only.
	ReportJSON []byte
	Err        string
	Submitted  time.Time
	Started    time.Time
	Finished   time.Time
	Hits       int64
	// CheckpointPoints is how many sweep points the run has completed so
	// far (including points recovered from the journal); ReusedPoints is
	// how many of them a resumed execution skipped.
	CheckpointPoints int
	ReusedPoints     int
}

func (r *run) view() RunView {
	return RunView{
		ID:         r.id,
		Experiment: r.exp.ID,
		Options:    r.opts,
		Status:     r.status,
		ReportJSON: r.report,
		Err:        r.errMsg,
		Submitted:  r.submitted,
		Started:    r.started,
		Finished:   r.finished,
		Hits:       r.hits,

		CheckpointPoints: r.cp.Len(),
		ReusedPoints:     r.cp.Reused(),
	}
}

// Server owns the queue, the worker pool and the run table.
type Server struct {
	cfg   Config
	byID  map[string]bench.Experiment
	clock Clock

	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *run
	wg      sync.WaitGroup

	mu        sync.Mutex
	runs      map[string]*run
	completed []string // terminal run IDs in completion order, for eviction
	draining  bool
	// preserved counts draining-canceled runs whose terminal transition
	// was deliberately NOT journaled, so the next boot replays them as
	// in-flight and resumes them (see finishLocked).
	preserved int
	drain     DrainSummary

	recovery RecoveryStats
	metrics  *metrics
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	byID := make(map[string]bench.Experiment, len(cfg.Experiments))
	for _, e := range cfg.Experiments {
		byID[e.ID] = e
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		byID:    byID,
		clock:   cfg.Clock,
		baseCtx: ctx,
		stop:    stop,
		queue:   make(chan *run, cfg.QueueDepth),
		runs:    make(map[string]*run),
		metrics: newMetrics(),
	}
	// Replay the journal before the workers start, so recovered
	// in-flight runs sit in the queue (in their journaled order) when
	// the pool spins up.
	s.restore()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Experiments returns the served registry in registration order.
func (s *Server) Experiments() []bench.Experiment { return s.cfg.Experiments }

// validIDs enumerates the served experiment IDs, sorted, for error
// bodies (mirrors bench.ValidIDs but respects injected registries).
func (s *Server) validIDs() []string {
	ids := make([]string, 0, len(s.byID))
	for id := range s.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Submit accepts one run request. abandonable marks a synchronous
// submission whose run may be canceled when every waiter disconnects.
// The bool result reports whether an existing run absorbed the request
// (a dedup or cache hit).
func (s *Server) Submit(experimentID string, o bench.Options, abandonable bool) (RunView, bool, error) {
	return s.SubmitWithBudget(experimentID, o, abandonable, 0)
}

// SubmitWithBudget is Submit with an end-to-end deadline budget (the
// propagated X-Piuma-Deadline-Ms header, already decremented by every
// upstream hop). A positive budget caps the run's execution deadline:
// the effective limit is min(RunTimeout, budget remaining at start),
// counted from submission — time spent queued burns budget too. A run
// killed by the budget reports the distinct "timeout" status with a
// partial report, exactly like a RunTimeout kill. Zero means no budget.
func (s *Server) SubmitWithBudget(experimentID string, o bench.Options, abandonable bool, budget time.Duration) (RunView, bool, error) {
	e, ok := s.byID[experimentID]
	if !ok {
		return RunView{}, false, fmt.Errorf("%w %q (valid: %s)", ErrUnknownExperiment, experimentID, strings.Join(s.validIDs(), ", "))
	}
	if err := o.Validate(); err != nil {
		return RunView{}, false, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	id := RunID(experimentID, o)

	s.mu.Lock()
	if r, ok := s.runs[id]; ok && !r.status.resubmittable() {
		// Queued/running: singleflight dedup. Done: cache hit. Failed,
		// canceled and timed-out runs are never cached — they fall
		// through and resubmit below.
		r.hits++
		r.abandonable = r.abandonable && abandonable
		if r.status == StatusDone {
			s.metrics.incCacheHit()
		} else {
			s.metrics.incDedupHit()
		}
		v := r.view()
		s.mu.Unlock()
		return v, true, nil
	}
	if s.draining {
		s.mu.Unlock()
		s.metrics.incRejected("draining")
		return RunView{}, false, ErrDraining
	}
	rctx, cancel := context.WithCancel(s.baseCtx)
	r := &run{
		id:          id,
		exp:         e,
		opts:        o,
		ctx:         rctx,
		cancel:      cancel,
		cp:          bench.NewCheckpoint(),
		status:      StatusQueued,
		submitted:   s.clock.Now(),
		abandonable: abandonable,
		done:        make(chan struct{}),
	}
	if budget > 0 {
		r.deadline = r.submitted.Add(budget)
	}
	select {
	case s.queue <- r:
		s.dropTerminalLocked(id) // a failed/canceled record is being replaced
		s.runs[id] = r
		s.metrics.incSubmitted()
		s.journalAccepted(r)
		v := r.view()
		s.mu.Unlock()
		return v, false, nil
	default:
		s.mu.Unlock()
		cancel()
		s.metrics.incRejected("queue_full")
		return RunView{}, false, ErrQueueFull
	}
}

// dropTerminalLocked removes id from the completion list when a fresh
// run is about to replace its failed/canceled record.
func (s *Server) dropTerminalLocked(id string) {
	if _, ok := s.runs[id]; !ok {
		return
	}
	for i, cid := range s.completed {
		if cid == id {
			s.completed = append(s.completed[:i], s.completed[i+1:]...)
			break
		}
	}
}

// Get returns a snapshot of one run.
func (s *Server) Get(id string) (RunView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return RunView{}, false
	}
	return r.view(), true
}

// Profile returns a run's simulation profile. The bool reports whether
// the run exists; the profile is nil until the run is done (and stays
// nil for runs that never executed an event-level simulation — those
// report an empty run list, not nil).
func (s *Server) Profile(id string) (*obs.Profile, Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, "", false
	}
	return r.profile, r.status, true
}

// Runs snapshots every known run, most recently submitted first.
func (s *Server) Runs() []RunView {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Iterate in sorted-ID order, not map order: the final sort below
	// breaks Submitted ties by ID, but building the views in a
	// deterministic order keeps every intermediate observable (and the
	// taint analyzer) honest about where map randomness can leak.
	ids := make([]string, 0, len(s.runs))
	for id := range s.runs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]RunView, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.runs[id].view())
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.After(out[j].Submitted)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Wait blocks until the run reaches a terminal status or ctx is done.
// If the last waiter of an abandonable run disconnects before the run
// finishes, the run itself is canceled — this is how a client
// disconnect aborts an in-flight simulation no other client wants.
func (s *Server) Wait(ctx context.Context, id string) (RunView, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return RunView{}, fmt.Errorf("%w %q", ErrUnknownRun, id)
	}
	r.waiters++
	done := r.done
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		r.waiters--
		abandon := r.waiters == 0 && r.abandonable && !r.status.terminal()
		s.mu.Unlock()
		if abandon {
			s.Cancel(id)
		}
	}()

	// Snapshot from the retained run pointer: a re-lookup by ID could
	// miss if the record was evicted the moment it completed.
	snapshot := func() RunView {
		s.mu.Lock()
		defer s.mu.Unlock()
		return r.view()
	}
	select {
	case <-done:
		return snapshot(), nil
	case <-ctx.Done():
		return snapshot(), ctx.Err()
	}
}

// Cancel aborts a run: a queued run is marked canceled immediately, a
// running one has its context canceled and is marked canceled when the
// experiment returns. Terminal runs are left untouched.
func (s *Server) Cancel(id string) (RunView, error) {
	s.mu.Lock()
	r, ok := s.runs[id]
	if !ok {
		s.mu.Unlock()
		return RunView{}, fmt.Errorf("%w %q", ErrUnknownRun, id)
	}
	if r.status.terminal() {
		v := r.view()
		s.mu.Unlock()
		return v, nil
	}
	r.cancel()
	if r.status == StatusQueued {
		s.finishLocked(r, s.clock.Now(), nil, nil, context.Canceled, false)
	}
	v := r.view()
	s.mu.Unlock()
	return v, nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth is the number of accepted-but-not-running runs.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Shutdown drains the service: new submissions are refused with
// ErrDraining, in-flight experiment contexts are canceled (the bench
// runners notice between sweep points), workers exit, and any runs
// still queued are marked canceled. With a Store configured, the
// drained runs' terminal transitions are NOT journaled — they replay
// as in-flight on the next boot and resume from their checkpoints —
// and the journal is flushed to disk before Shutdown returns (see
// DrainSummary for the one-line accounting). It returns ctx.Err() if
// the pool does not drain in time.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stop()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Whatever is still sitting in the queue will never run.
	queued := 0
	for {
		select {
		case r := <-s.queue:
			queued++
			s.mu.Lock()
			if !r.status.terminal() {
				s.finishLocked(r, s.clock.Now(), nil, nil, context.Canceled, false)
			}
			s.mu.Unlock()
			continue
		default:
		}
		break
	}

	sum := DrainSummary{QueuedDrained: queued}
	if st := s.cfg.Store; st != nil {
		if serr := st.Sync(); serr != nil && err == nil {
			err = serr
		}
		sum.JournaledRecords = st.AppendedRecords()
		sum.JournalBytes = st.SizeBytes()
	}
	s.mu.Lock()
	sum.PreservedRuns = s.preserved
	s.drain = sum
	s.mu.Unlock()
	return err
}

// DrainSummary accounts for what Shutdown did, for the operator's
// one-line drain log.
type DrainSummary struct {
	// QueuedDrained is how many accepted-but-never-started runs the
	// shutdown pulled off the queue.
	QueuedDrained int
	// PreservedRuns is how many non-terminal runs were left in-flight in
	// the journal (no terminal record), to be resumed by the next boot.
	PreservedRuns int
	// JournaledRecords is how many lifecycle records this process
	// appended over its lifetime; JournalBytes is the journal's final
	// synced size. Both are zero without a Store.
	JournaledRecords int64
	JournalBytes     int64
}

// DrainSummary returns the accounting of a completed Shutdown (the
// zero value before Shutdown has run).
func (s *Server) DrainSummary() DrainSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drain
}

// worker executes queued runs until the base context is canceled.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case r := <-s.queue:
			s.execute(r)
		}
	}
}

// PanicError is the terminal error of a run whose experiment panicked:
// the recovered value plus the goroutine stack at the panic site. The
// worker survives — a panicking experiment produces a failed run, not a
// crashed service.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("experiment panicked: %v\n%s", e.Value, e.Stack)
}

func (s *Server) execute(r *run) {
	s.mu.Lock()
	if r.status != StatusQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	r.status = StatusRunning
	r.started = s.clock.Now()
	// The execution limit is RunTimeout capped by whatever remains of
	// the propagated deadline budget — which may already be negative if
	// the run sat queued past its deadline, in which case the timeout
	// context below is born expired and the run reports "timeout" with
	// an empty partial report without burning any simulation time.
	limit := s.cfg.RunTimeout
	if !r.deadline.IsZero() {
		if rem := r.deadline.Sub(r.started); limit <= 0 || rem < limit {
			limit = rem
		}
	}
	r.limit = limit
	s.journal(store.Started(r.id))
	s.mu.Unlock()
	s.metrics.incStarted()

	ctx := r.ctx
	var timeoutCtx context.Context
	if limit > 0 || !r.deadline.IsZero() {
		var cancel context.CancelFunc
		timeoutCtx, cancel = context.WithTimeout(ctx, limit)
		ctx = timeoutCtx
		defer cancel()
	}
	if spec, err := r.opts.FaultSpec(); err == nil && spec != nil {
		s.metrics.setFaultSeverity(r.exp.ID, spec.Severity())
	}
	// Aggregation-only profiler: per-component utilization without span
	// retention, so long-running services never accumulate trace memory.
	// The experiment runs single-threadedly against it; the run.done
	// close in finishLocked publishes the finished profile to readers.
	// An interrupted or failed run's checkpointed points back its
	// partial report. Recovered runs arrive here with the previous
	// boot's points already restored, and skip them. The observer
	// journals each fresh point the moment it completes, so a crash
	// loses at most the point in flight.
	prof := obs.NewProfiler(obs.ProfilerOptions{MaxSpans: -1})
	cp := r.cp
	cp.SetObserver(func(p bench.Point) { s.journalPoint(r.id, p) })
	runCtx := bench.WithCheckpoint(obs.NewContext(ctx, prof), cp)

	// A run executes once: its simulations are deterministic, so an
	// error would recur on any re-execution and ends the run here.
	rep, err := s.runExperiment(runCtx, r)
	if err == nil && rep == nil {
		err = fmt.Errorf("experiment %s returned no report", r.exp.ID)
	}
	// A run killed mid-sweep still surfaces the points it completed.
	if err != nil && rep == nil {
		rep = cp.PartialReport(r.exp)
	}
	// Timeout vs cancel: context errors are sticky and first-cause
	// wins, so DeadlineExceeded on the derived context proves the
	// deadline fired before any user cancel or shutdown — even if the
	// waiter abandoned the run between the deadline expiring and the
	// kill landing at the next sweep-point check. A cancel that beat
	// the deadline leaves Canceled here instead.
	timedOut := timeoutCtx != nil &&
		errors.Is(timeoutCtx.Err(), context.DeadlineExceeded)
	// Encode the report once, outside the lock: the journal takes the
	// compact form, the run keeps only the stored one. The run finished
	// when the experiment returned; encoding is not part of its elapsed
	// time.
	finished := s.clock.Now()
	compact, stored, encErr := encodeReport(rep)
	if encErr != nil && err == nil {
		err = fmt.Errorf("encoding the report of %s: %w", r.exp.ID, encErr)
	}

	s.mu.Lock()
	r.profile = prof.Profile()
	s.finishLocked(r, finished, compact, stored, err, timedOut)
	s.mu.Unlock()
	s.maybeCompact()
}

// runExperiment runs r's experiment, converting a panic into a
// *PanicError so one bad experiment cannot erode the worker pool.
func (s *Server) runExperiment(ctx context.Context, r *run) (rep *bench.Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.metrics.incPanicked()
			err = &PanicError{Value: v, Stack: string(debug.Stack())}
		}
	}()
	return r.exp.Run(ctx, r.opts)
}

// finishLocked moves a run to its terminal status, closes done, frees
// its context, records metrics and applies cache eviction. finished
// stamps the terminal transition; compact and stored are the run's
// report as encodeReport renders it (nil when there is none). timedOut distinguishes a RunTimeout kill from a
// caller cancel — both surface as context errors from the experiment,
// but they are different facts and report different statuses.
// Interrupted and failed runs keep any partial report their checkpoint
// produced. Callers hold s.mu.
func (s *Server) finishLocked(r *run, finished time.Time, compact, stored []byte, err error, timedOut bool) {
	r.finished = finished
	r.report = stored
	switch {
	case err == nil:
		r.status = StatusDone
		s.metrics.observeCompleted(r.exp.ID, r.finished.Sub(r.started))
		s.metrics.recordProfile(r.exp.ID, r.profile)
	case timedOut:
		r.status = StatusTimeout
		lim := r.limit
		if lim <= 0 {
			lim = s.cfg.RunTimeout
		}
		r.errMsg = fmt.Sprintf("run exceeded the %v timeout: %v", lim, err)
		s.metrics.incTimedOut()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.status = StatusCanceled
		r.errMsg = err.Error()
		s.metrics.incCanceled()
	default:
		r.status = StatusFailed
		r.errMsg = err.Error()
		s.metrics.incFailed()
	}
	// Journal the terminal transition — except for draining-triggered
	// cancellations, which are deliberately left non-terminal in the
	// journal so the next boot replays them as in-flight and resumes
	// them from their checkpointed points (the graceful-shutdown twin of
	// kill -9 recovery).
	switch {
	case r.status == StatusDone:
		s.journal(store.Completed(r.id, compact))
	case r.status == StatusCanceled && s.draining:
		s.preserved++
	default:
		s.journal(store.Failed(r.id, string(r.status), r.errMsg))
	}
	close(r.done)
	r.cancel()
	s.completed = append(s.completed, r.id)
	s.evictLocked()
}

// evictLocked applies the cache-capacity bound to the completion list.
func (s *Server) evictLocked() {
	for len(s.completed) > s.cfg.CacheCap {
		evict := s.completed[0]
		s.completed = s.completed[1:]
		if old, ok := s.runs[evict]; ok && old.status.terminal() {
			delete(s.runs, evict)
			s.metrics.incEvicted()
		}
	}
}
