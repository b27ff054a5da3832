// Package sim is a deterministic discrete-event simulation engine. It is
// the substrate under internal/piuma, standing in for the proprietary
// PIUMA architecture simulator the paper used: components are modeled as
// processes (exactly one runnable at a time) and contended resources
// (FIFO bandwidth servers), and time advances event-to-event rather than
// cycle-by-cycle so that graphs with millions of edges simulate in
// seconds.
//
// A process takes one of two forms. A coroutine process (Spawn) is a
// body that blocks inside the primitives and keeps its state on its own
// stack; the DMA kernels use it. A step process (StartStep) is a
// Stepper whose Step method the engine calls on every activation and
// that returns when it parks, keeping its state in its own fields — a
// PIUMA hardware thread is a few registers of in-order state, not a
// stack. The loop-unrolled kernel and the random walk use it, and their
// threads embed their Proc, so an activation touches one object, the
// thread, and switching to it is a method call instead of a coroutine
// switch. Both forms share the event queue, the primitives, deadlock
// detection and the tracer calls, so one program gives the same events
// in either form.
//
// The event queue is a calendar queue. Simulated time only moves
// forward, and nearly every event falls within a couple of microseconds
// of now, so events wait in a ring of 512 ps time slots and the next one
// is found by a scan of an occupancy bitmap, not a heap's compare chain;
// the rare event past the ring's horizon waits in a heap until the ring
// reaches it. A process has at most one pending wake-up, and that event
// lives in its Proc: the ring links it in place, so a sleep neither
// allocates nor copies an event.
//
// Determinism: the engine orders simultaneous events by scheduling
// sequence number, and only one process ever executes at a time (the
// engine runs a process until it parks and runs nothing else meanwhile),
// so a given program produces an identical event trace on every run.
package sim

import (
	"fmt"
	"iter"
	"sort"
)

// Time is simulated time in picoseconds. Picosecond resolution keeps
// byte-transfer durations exact (64 B at 12.8 GB/s is exactly 5 ns).
type Time int64

// Convenient unit multipliers.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a simulated duration to float seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts a simulated duration to float nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Engine owns the event queue and the simulated clock. It dispatches
// events in (t, seq) order from a calendar queue; Run drops the queue's
// storage once it drains, and the engine can be reused afterwards, or
// after a panic has come out of Run.
type Engine struct {
	now     Time
	events  calendar
	seq     int64
	nEvents int64
	// live holds the spawned processes that have not finished, each at
	// its Proc.live index, for deadlock reporting.
	live    []*Proc
	running bool
	tracer  Tracer
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events processed so far.
func (e *Engine) Events() int64 { return e.nEvents }

// At schedules fn to run at absolute time t (panics if t is in the past).
func (e *Engine) At(t Time, fn func()) {
	e.checkTime(t)
	ev := e.events.newFunc(fn)
	e.seq++
	ev.t, ev.seq = t, e.seq
	e.events.push(ev)
}

// After schedules fn to run delay from now.
func (e *Engine) After(delay Time, fn func()) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+delay, fn)
}

// schedule queues the wake-up of p at time t. It panics, before
// touching the queue, if p's wake-up is already queued: linking the
// event a second time would corrupt its slot list.
func (e *Engine) schedule(t Time, p *Proc) {
	e.checkTime(t)
	ev := &p.wakeup
	if ev.queued {
		panic(fmt.Sprintf("sim: process %q parked while its wake-up is already queued", p.Name))
	}
	e.seq++
	ev.t, ev.seq, ev.queued = t, e.seq, true
	e.events.push(ev)
}

func (e *Engine) checkTime(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
}

// Run processes events until the queue is empty. It returns an error if
// any spawned process is still blocked when the queue drains (a
// deadlock: some wake-up was never scheduled). A panic in an event
// function or a process propagates out of Run on the caller's goroutine.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.events.len() > 0 {
		ev := e.events.pop()
		e.now = ev.t
		e.nEvents++
		if e.tracer != nil {
			e.tracer.Event(e.now)
		}
		if p := ev.p; p != nil {
			ev.queued = false
			e.activate(p)
		} else {
			fn := ev.fn
			e.events.freeFunc(ev)
			fn()
		}
	}
	// The ring's stale tails still point at popped events: drop the
	// drained queue's storage with them.
	e.events = calendar{}
	if len(e.live) == 0 {
		e.live = nil
		return nil
	}
	names := make([]string, len(e.live))
	for i, p := range e.live {
		names[i] = p.Name
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock, %d process(es) still blocked: %v", len(e.live), names)
}

// Proc is a simulated process. Exactly one process runs at a time, and
// it runs until it parks or finishes, so processes may freely read and
// write shared simulation state without locks.
//
// The blocking primitives (Sleep, SleepUntil, WaitFor, Gate.Acquire,
// Barrier.Wait) serve both process forms. In a coroutine process they
// block until the process is resumed and then report false. In a step
// process they never block: they report true when the process parked,
// and the step must then return at once; the engine calls it again on
// the wake-up. A step that returns without parking has finished.
//
// A panic inside a process body or step unwinds it and comes out of
// Engine.Run on the caller's goroutine, where it can be recovered. A
// recover deferred inside the body itself still catches it first.
//
// Every process owns its wake-up event, so it can have at most one
// pending wake-up; a step process that parks twice in one activation
// panics.
type Proc struct {
	Name string
	eng  *Engine
	// wakeup is the process's event in the queue, while queued is set.
	wakeup event
	// A coroutine process (iter.Pull) runs next until it yields (parks)
	// or returns; yield, called from inside the body, hands control back
	// to the engine.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// A step process runs step once per activation; parks counts the
	// times the current activation parked.
	step  Stepper
	parks int
	// wake resumes the process; WaitFor makes it on first use and hands
	// it out.
	wake func()
	// live is the index of the process in Engine.live.
	live int
}

// Spawn creates a coroutine process and schedules its first activation
// at the current time. fn must only block via the Proc's own primitives.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{Name: name, eng: e}
	// The stop func is not kept: a body that returns ends its coroutine,
	// and Run reports a body that never does as deadlocked.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	e.start(p)
	return p
}

// Stepper is the state of a step process. The engine calls Step on
// every activation; Step keeps its progress in the Stepper and returns
// when a primitive reports that the process parked, or returns without
// parking to finish.
type Stepper interface{ Step(*Proc) }

// StartStep makes p a step process running s and schedules its first
// activation at the current time. The caller owns p's storage, usually
// a Proc embedded in s itself; p must not be in use by the engine.
func (e *Engine) StartStep(p *Proc, name string, s Stepper) {
	*p = Proc{Name: name, eng: e, step: s}
	e.start(p)
}

// start registers a new process and schedules its first activation.
func (e *Engine) start(p *Proc) {
	p.wakeup.p = p
	p.live = len(e.live)
	e.live = append(e.live, p)
	if e.tracer != nil {
		e.tracer.Process(e.now, p.Name, "spawn")
	}
	e.schedule(e.now, p)
}

// activate runs p until it parks or finishes. Must be called from engine
// context (an event function or another process).
func (e *Engine) activate(p *Proc) {
	if e.tracer != nil {
		e.tracer.Process(e.now, p.Name, "resume")
	}
	var parked bool
	if p.step != nil {
		p.parks = 0
		p.step.Step(p)
		if p.parks > 1 {
			// The process is registered to be woken twice.
			panic(fmt.Sprintf("sim: step process %q parked %d times in one activation", p.Name, p.parks))
		}
		parked = p.parks == 1
	} else {
		_, parked = p.next()
	}
	if parked {
		if e.tracer != nil {
			e.tracer.Process(e.now, p.Name, "park")
		}
		return
	}
	last := len(e.live) - 1
	e.live[p.live] = e.live[last]
	e.live[p.live].live = p.live
	e.live[last] = nil
	e.live = e.live[:last]
	if e.tracer != nil {
		e.tracer.Process(e.now, p.Name, "finish")
	}
}

// park follows the registration of p's wake-up. A coroutine process
// hands control back to the engine until it is reactivated and reports
// false; a step process records that it parked and reports true.
func (p *Proc) park() bool {
	if p.step == nil {
		p.yield(struct{}{})
		return false
	}
	p.parks++
	return true
}

// Engine returns the engine driving this process.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the process for d (see SleepUntil).
func (p *Proc) Sleep(d Time) bool {
	if d < 0 {
		panic("sim: negative sleep")
	}
	return p.SleepUntil(p.eng.now + d)
}

// SleepUntil suspends the process until absolute time t. It is a no-op
// reporting false if t is not in the future; otherwise it reports
// whether a step process parked (see Proc).
func (p *Proc) SleepUntil(t Time) bool {
	if t <= p.eng.now {
		return false
	}
	p.eng.schedule(t, p)
	return p.park()
}

// WaitFor parks the process and hands the caller a wake function that
// must eventually be invoked from engine context (an event or another
// process) to resume it. It is the building block for queues, barriers
// and condition-style waits. It reports whether a step process parked
// (see Proc).
func (p *Proc) WaitFor(register func(wake func())) bool {
	if p.wake == nil {
		p.wake = func() { p.eng.activate(p) }
	}
	register(p.wake)
	return p.park()
}

// Server is a FIFO resource with a single service timeline — the model
// for a DRAM slice's data bus or a DMA engine. Reservations are granted
// in call order; each occupies the server for its duration. The server
// tracks total busy time for utilization accounting.
type Server struct {
	Name string
	// next is the earliest time a new reservation can start.
	next Time
	// busy accumulates reserved time.
	busy Time
	// tracer, when set, observes every reservation.
	tracer Tracer
}

// SetTracer installs (or clears, with nil) the server's tracer.
func (s *Server) SetTracer(tr Tracer) { s.tracer = tr }

// Reserve books dur of service starting no earlier than now, returning
// the start and completion times. It never blocks: callers model
// waiting by sleeping until end.
func (s *Server) Reserve(now Time, dur Time) (start, end Time) {
	if dur < 0 {
		panic("sim: negative reservation")
	}
	start = s.next
	if now > start {
		start = now
	}
	end = start + dur
	s.next = end
	s.busy += dur
	if s.tracer != nil {
		s.tracer.Reserve(s.Name, start, end)
	}
	return start, end
}

// BusyTime returns the total reserved service time.
func (s *Server) BusyTime() Time { return s.busy }

// Utilization returns busy time as a fraction of elapsed.
func (s *Server) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.busy) / float64(elapsed)
}

// Backlog returns how far the server's timeline extends past now.
func (s *Server) Backlog(now Time) Time {
	if s.next <= now {
		return 0
	}
	return s.next - now
}

// Gate is a counting semaphore for processes — used to bound queue
// depths (e.g. outstanding DMA descriptors per engine).
type Gate struct {
	Name    string
	cap     int
	held    int
	waiters procQueue
}

// NewGate returns a gate admitting cap concurrent holders.
func NewGate(name string, cap int) *Gate {
	if cap <= 0 {
		panic("sim: gate capacity must be positive")
	}
	return &Gate{Name: name, cap: cap}
}

// Acquire blocks p until a slot is free. It reports whether a step
// process parked (see Proc); it holds the slot when it is next
// activated.
func (g *Gate) Acquire(p *Proc) bool {
	if g.held < g.cap {
		g.held++
		return false
	}
	g.waiters.push(p)
	// The releaser keeps held unchanged, handing us its slot, before
	// waking us.
	return p.park()
}

// Release frees a slot from engine context (an event function or a
// process). If another process is waiting it inherits the slot.
func (g *Gate) Release() {
	if g.held <= 0 {
		panic("sim: release of unheld gate")
	}
	if g.waiters.n > 0 {
		// held stays the same: the slot transfers to the waiter.
		p := g.waiters.pop()
		p.eng.activate(p)
		return
	}
	g.held--
}

// Held returns the number of currently held slots.
func (g *Gate) Held() int { return g.held }

// procQueue is a FIFO of blocked processes on a ring buffer, so a
// queue that fills and drains repeatedly reuses its storage.
type procQueue struct {
	buf  []*Proc
	head int
	n    int
}

func (q *procQueue) push(p *Proc) {
	if q.n == len(q.buf) {
		grown := make([]*Proc, max(4, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

func (q *procQueue) pop() *Proc {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

// Barrier releases all waiting processes once n of them have arrived —
// the global-collective offload of the PIUMA cores, used to time kernel
// completion.
type Barrier struct {
	Name    string
	n       int
	arrived int
	waiters []*Proc
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(name string, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &Barrier{Name: name, n: n}
}

// Wait blocks p until all n participants have arrived. The last arrival
// does not block: it resumes the others, in arrival order, before Wait
// returns. Wait reports whether a step process parked (see Proc).
func (b *Barrier) Wait(p *Proc) bool {
	b.arrived++
	if b.arrived > b.n {
		panic(fmt.Sprintf("sim: barrier %q overflow (%d arrivals for %d parties)", b.Name, b.arrived, b.n))
	}
	if b.arrived == b.n {
		for _, w := range b.waiters {
			w.eng.activate(w)
		}
		b.waiters = nil
		return false
	}
	b.waiters = append(b.waiters, p)
	return p.park()
}
