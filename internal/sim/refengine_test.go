package sim

import (
	"container/heap"
	"fmt"
	"sort"
)

// This file keeps the engine's previous process mechanism as a
// test-only reference: every process is a goroutine driven through a
// resume/park channel handshake, events sit in a container/heap queue,
// and each wake-up is a fresh closure. FuzzEngineEquivalence runs the
// same programs on it and on Engine and requires identical behaviour. A
// panic in a process body is caught on the process's goroutine and
// raised again on the engine's, so it comes out of Run as on Engine.

type refEvent struct {
	t   Time
	seq int64
	fn  func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type refEngine struct {
	now     Time
	events  refHeap
	seq     int64
	nEvents int64
	// live holds the spawned processes that have not finished.
	live    map[*refProc]struct{}
	running bool
	tracer  Tracer
}

func newRefEngine() *refEngine {
	return &refEngine{live: make(map[*refProc]struct{})}
}

func (e *refEngine) Now() Time           { return e.now }
func (e *refEngine) Events() int64       { return e.nEvents }
func (e *refEngine) SetTracer(tr Tracer) { e.tracer = tr }

func (e *refEngine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, refEvent{t: t, seq: e.seq, fn: fn})
}

func (e *refEngine) After(delay Time, fn func()) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+delay, fn)
}

func (e *refEngine) Run() error {
	if e.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(refEvent)
		e.now = ev.t
		e.nEvents++
		if e.tracer != nil {
			e.tracer.Event(e.now)
		}
		ev.fn()
	}
	if len(e.live) > 0 {
		names := make([]string, 0, len(e.live))
		for p := range e.live {
			names = append(names, p.Name)
		}
		sort.Strings(names)
		return fmt.Errorf("sim: deadlock, %d process(es) still blocked: %v", len(e.live), names)
	}
	return nil
}

type refProc struct {
	Name     string
	eng      *refEngine
	resume   chan struct{}
	park     chan struct{}
	finished bool
	// panicked is the value the body panicked with, if it did.
	panicked any
}

func (e *refEngine) Spawn(name string, fn func(*refProc)) *refProc {
	p := &refProc{
		Name:   name,
		eng:    e,
		resume: make(chan struct{}),
		park:   make(chan struct{}),
	}
	e.live[p] = struct{}{}
	if e.tracer != nil {
		e.tracer.Process(e.now, name, "spawn")
	}
	go func() {
		<-p.resume
		defer func() {
			p.panicked = recover()
			p.finished = true
			p.park <- struct{}{}
		}()
		fn(p)
	}()
	e.After(0, func() { e.activate(p) })
	return p
}

func (e *refEngine) activate(p *refProc) {
	if e.tracer != nil {
		e.tracer.Process(e.now, p.Name, "resume")
	}
	p.resume <- struct{}{}
	<-p.park
	if p.panicked != nil {
		// The process stays live, as on Engine.
		panic(p.panicked)
	}
	if p.finished {
		delete(e.live, p)
		if e.tracer != nil {
			e.tracer.Process(e.now, p.Name, "finish")
		}
	} else if e.tracer != nil {
		e.tracer.Process(e.now, p.Name, "park")
	}
}

func (p *refProc) suspend() {
	p.park <- struct{}{}
	<-p.resume
}

func (p *refProc) Now() Time { return p.eng.now }

func (p *refProc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.SleepUntil(p.eng.now + d)
}

func (p *refProc) SleepUntil(t Time) {
	if t <= p.eng.now {
		return
	}
	p.eng.At(t, func() { p.eng.activate(p) })
	p.suspend()
}

func (p *refProc) WaitFor(register func(wake func())) {
	register(func() { p.eng.activate(p) })
	p.suspend()
}

type refGate struct {
	Name    string
	cap     int
	held    int
	waiters []func()
}

func newRefGate(name string, cap int) *refGate {
	if cap <= 0 {
		panic("sim: gate capacity must be positive")
	}
	return &refGate{Name: name, cap: cap}
}

func (g *refGate) Acquire(p *refProc) {
	if g.held < g.cap {
		g.held++
		return
	}
	p.WaitFor(func(wake func()) {
		g.waiters = append(g.waiters, wake)
	})
}

func (g *refGate) Release() {
	if g.held <= 0 {
		panic("sim: release of unheld gate")
	}
	if len(g.waiters) > 0 {
		wake := g.waiters[0]
		g.waiters = g.waiters[1:]
		wake()
		return
	}
	g.held--
}

type refBarrier struct {
	Name    string
	n       int
	arrived int
	waiters []func()
}

func newRefBarrier(name string, n int) *refBarrier {
	if n <= 0 {
		panic("sim: barrier size must be positive")
	}
	return &refBarrier{Name: name, n: n}
}

func (b *refBarrier) Wait(p *refProc) {
	b.arrived++
	if b.arrived > b.n {
		panic(fmt.Sprintf("sim: barrier %q overflow (%d arrivals for %d parties)", b.Name, b.arrived, b.n))
	}
	if b.arrived == b.n {
		for _, wake := range b.waiters {
			wake()
		}
		b.waiters = nil
		return
	}
	p.WaitFor(func(wake func()) {
		b.waiters = append(b.waiters, wake)
	})
}
