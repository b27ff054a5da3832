package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// FuzzEngineEquivalence decodes random programs of Spawn, Sleep,
// SleepUntil, WaitFor, Gate Acquire/Release, Barrier, At/After,
// spawn-from-process and panics, and runs each three ways: as coroutine
// processes and as step processes on Engine, and on the goroutine
// reference engine (refengine_test.go). All three must give identical
// tracer streams, program logs, event counts, panics and deadlock
// errors.
func FuzzEngineEquivalence(f *testing.F) {
	for _, seed := range equivalenceSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// An input the engines never finish would stall the fuzzer with
		// nothing saved. Crashing the worker instead makes the fuzzer
		// record the input, and the stacks show where each engine hung.
		input := fmt.Sprintf("%x", data)
		watchdog := time.AfterFunc(fuzzInputDeadline, func() {
			buf := make([]byte, 1<<20)
			panic(fmt.Sprintf("FuzzEngineEquivalence: input %s still running after %v\n%s",
				input, fuzzInputDeadline, buf[:runtime.Stack(buf, true)]))
		})
		defer watchdog.Stop()
		prog := decodeProgram(data)
		want := runProgram(refEngineAdapter{newRefEngine()}, prog)
		compareRuns(t, "coroutine", runProgram(coroEngine{NewEngine()}, prog), want)
		compareRuns(t, "step", runProgram(stepEngine{coroEngine{NewEngine()}}, prog), want)
	})
}

// fuzzInputDeadline bounds one input of FuzzEngineEquivalence. A
// program runs for milliseconds, so only a hang reaches it.
const fuzzInputDeadline = 30 * time.Second

// equivalenceSeeds encode the shapes of the engine tests in
// sim_test.go, then the cases where a step process differs most from a
// coroutine (see decodeProgram for the byte layout).
var equivalenceSeeds = [][]byte{
	// TestProcessSleep: sleep, sleep, SleepUntil in the past.
	{0, 0, 0, 0, 0, 3, 0, 7, 0, 5, 1, 3, 0},
	// TestProcessesInterleaveDeterministically: three sleepers.
	{0, 0, 0, 0, 2, 3, 0, 2, 0, 2, 0, 2, 3, 0, 2, 0, 2, 0, 2, 3, 0, 2, 0, 2, 0, 2, 0},
	// TestDeadlockDetection: a WaitFor nobody wakes.
	{0, 0, 0, 0, 0, 1, 2, 0, 0},
	// TestGateBoundsConcurrency: six workers, gate of 2, releases by event.
	{0, 1, 0, 0, 5,
		3, 4, 0, 8, 4, 0, 4, 3, 4, 0, 8, 4, 0, 4, 3, 4, 0, 8, 4, 0, 4,
		3, 4, 0, 8, 4, 0, 4, 3, 4, 0, 8, 4, 0, 4, 3, 4, 0, 8, 4, 0, 4, 0},
	// TestBarrier: three arrivals at different times.
	{0, 0, 0, 2, 2, 2, 0, 1, 6, 0, 2, 0, 3, 6, 0, 2, 0, 2, 6, 0, 0},
	// TestSpawnFromProcess: a parent spawns a sleeping child.
	{0, 0, 0, 0, 1, 3, 0, 5, 9, 1, 0, 7, 1, 0, 5, 0},
	// TestEventOrdering: same-time events wake waiters in FIFO order.
	{0, 0, 0, 0, 1, 1, 2, 0, 1, 2, 0, 3, 10, 0, 5, 0, 10, 2},
	// TestManyProcessesStress: many sleepers with server reservations.
	{0, 0, 0, 0, 5,
		4, 0, 1, 10, 3, 0, 2, 10, 4, 4, 0, 1, 10, 3, 0, 2, 10, 4,
		4, 0, 1, 10, 3, 0, 2, 10, 4, 4, 0, 1, 10, 3, 0, 2, 10, 4,
		4, 0, 1, 10, 3, 0, 2, 10, 4, 4, 0, 1, 10, 3, 0, 2, 10, 4, 0},
	// Gate contention with process-side release, a wake hand-off and a
	// spawn scheduled from an event.
	{1, 0, 1, 0, 0, 2,
		4, 4, 0, 0, 3, 5, 0, 2, 0, 4, 4, 1, 0, 1, 11, 2, 5, 1, 3, 7, 2, 4, 1, 1, 0},
	// Wake-ups at or before now: SleepUntil(0) and Sleep(0) at t=0, then
	// SleepUntil(2) at t=3, none of which parks.
	{0, 0, 0, 0, 0, 4, 1, 0, 0, 0, 0, 3, 1, 2, 0},
	// A process parked on a barrier is resumed nested inside the last
	// arrival's Wait.
	{0, 0, 0, 1, 1, 1, 6, 0, 2, 0, 5, 6, 0, 0},
	// A process finishes without ever parking: a reservation, a wake-up
	// with nobody waiting and a zero sleep.
	{0, 0, 0, 0, 0, 3, 10, 3, 3, 0, 0, 0, 0},
	// A panic in a body comes out of Run while another process waits.
	{0, 0, 0, 0, 1, 2, 0, 4, fzPanic, 0, 1, 2, 0, 0},

	// The seeds below end in a time-scale selector (see fzScales).

	// Delays past the calendar's horizon: every sleep, wake-up event and
	// top-level event goes through the overflow heap, and processes meet
	// there at equal times.
	{0, 0, 0, 0, 1,
		3, 0, 7, 1, 31, 0, 1,
		3, 0, 3, 7, 5, 0, 2,
		2, 9, 0, 30, 1, 5},
	// Times off the 500 ps grid: three processes contend for a gate of
	// two while sleeping and reserving servers in 511 ps units.
	{0, 1, 0, 0, 2,
		6, 4, 0, 0, 5, 10, 3, 5, 0, 0, 3, 1, 29,
		6, 4, 0, 0, 5, 10, 3, 5, 0, 0, 3, 1, 29,
		6, 4, 0, 0, 5, 10, 3, 5, 0, 0, 3, 1, 29,
		1, 13, 0, 2},
	// Inserts into one slot out of time order: at unit 1 the whole
	// program shares slot 0, and each process schedules times earlier
	// than ones already queued, ties included.
	{0, 0, 0, 0, 2,
		3, 1, 20, 0, 0, 2, 0,
		3, 0, 3, 7, 1, 1, 4,
		3, 7, 6, 0, 2, 11, 0,
		2, 5, 0, 4, 0, 0},
	// The ring wraps: at an eighth of the horizon per unit, a process
	// sleeps seven units at a time around the ring while another waits
	// in the overflow heap for time 31.
	{0, 0, 0, 0, 1,
		5, 0, 7, 0, 7, 0, 7, 0, 6, 0, 5,
		4, 0, 1, 1, 31, 0, 2, 7, 3,
		1, 16, 0, 4},
	// An overflow event shares its slot with direct inserts: a wake-up at
	// time 9 and a top-level event at time 9 start past the horizon and
	// move into the ring when the clock reaches 7, where a sleep and a
	// wake-up event then land at time 9 directly. They pop in schedule
	// order.
	{0, 0, 0, 0, 1,
		2, 1, 9, 2, 0,
		3, 0, 7, 7, 2, 0, 2,
		1, 9, 0, 4},
}

// Program interpreter --------------------------------------------------

type fzOp struct{ kind, arg byte }

// fzPanic is the op kind that panics; every other kind selects one of
// twelve operations by its value mod 12.
const fzPanic = 255

type fzProgram struct {
	gateCaps     []int
	barrierSizes []int
	bodies       [][]fzOp
	// events are top-level At events: kind is the time, arg the action.
	events []fzOp
	// scale is the length of one time unit of the program's sleeps,
	// event times and reservations.
	scale Time
}

// fzScales are the time units a program can select. Unit 1 keeps a
// whole program inside one calendar slot; the others spread it over
// the 500 ps grid, off the grid, one slot per unit, an eighth of the
// ring's horizon per unit (so the ring wraps), and past the horizon
// (so every delay goes through the overflow heap).
var fzScales = [...]Time{1, 500, 511, 1 << slotShift, horizon / 8, horizon + 1}

// horizon is the span of the calendar's ring.
const horizon = nSlots << slotShift

// decodeProgram reads, in order: the gate count and capacities, the
// barrier count and sizes, the body count and each body (an op count,
// then kind/arg byte pairs), and the top-level event count and events
// (time/action pairs), then the time-scale selector (an index into
// fzScales). Missing bytes read as zero, so every input is a valid
// program, and one without the selector byte runs at unit 1.
func decodeProgram(data []byte) fzProgram {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var prog fzProgram
	for n := 1 + int(next()%3); n > 0; n-- {
		prog.gateCaps = append(prog.gateCaps, 1+int(next()%3))
	}
	for n := 1 + int(next()%2); n > 0; n-- {
		prog.barrierSizes = append(prog.barrierSizes, 1+int(next()%4))
	}
	for n := 1 + int(next()%6); n > 0; n-- {
		body := []fzOp{}
		for k := next() % 16; k > 0; k-- {
			body = append(body, fzOp{next(), next()})
		}
		prog.bodies = append(prog.bodies, body)
	}
	for n := next() % 4; n > 0; n-- {
		prog.events = append(prog.events, fzOp{next(), next()})
	}
	prog.scale = fzScales[int(next())%len(fzScales)]
	return prog
}

// fzRun is one execution of a program on one engine. When the first Run
// ends in a deadlock or a panic, drain unblocks every process so that no
// engine leaks a goroutine per fuzz input; the drain is traced and
// compared like the rest of the run.
type fzRun struct {
	e        fzEngine
	prog     fzProgram
	gates    []fzGate
	barriers []fzBarrier
	servers  []*Server
	// waiting counts processes inside Gate.Acquire, arrived the
	// arrivals at each barrier.
	waiting  []int
	arrived  []int
	mailbox  []func()
	draining bool
	log      []string
}

type fzResult struct {
	trace             []traceRec
	log               []string
	events            int64
	now               Time
	err, panic, drain string
}

func runProgram(e fzEngine, prog fzProgram) fzResult {
	tr := &recTracer{}
	e.SetTracer(tr)
	st := &fzRun{e: e, prog: prog}
	for i, c := range prog.gateCaps {
		st.gates = append(st.gates, e.newGate(fmt.Sprintf("g%d", i), c))
	}
	for i, n := range prog.barrierSizes {
		st.barriers = append(st.barriers, e.newBarrier(fmt.Sprintf("b%d", i), n))
	}
	for i := 0; i < 2; i++ {
		s := &Server{Name: fmt.Sprintf("s%d", i)}
		s.SetTracer(tr)
		st.servers = append(st.servers, s)
	}
	st.waiting = make([]int, len(st.gates))
	st.arrived = make([]int, len(st.barriers))
	for _, ev := range prog.events {
		e.At(st.time(ev.kind%32), func() { st.event(ev.arg) })
	}
	for i := range prog.bodies {
		st.spawn(fmt.Sprintf("p%d", i), i, 0)
	}
	var res fzResult
	res.err, res.panic = runRecovered(e)
	res.now = e.Now()
	if res.err != "" || res.panic != "" {
		st.draining = true
		e.At(e.Now(), st.drain)
		res.drain = errString(e.Run())
	}
	res.trace, res.log, res.events = tr.recs, st.log, e.Events()
	return res
}

// runRecovered runs e and returns its error and, if a process panicked
// out of Run, the panic value.
func runRecovered(e fzEngine) (err, panicked string) {
	defer func() {
		if v := recover(); v != nil {
			panicked = fmt.Sprint(v)
		}
	}()
	return errString(e.Run()), ""
}

// time returns units of the program's time scale.
func (st *fzRun) time(units byte) Time { return Time(units) * st.prog.scale }

func (st *fzRun) logf(format string, args ...any) {
	st.log = append(st.log, fmt.Sprintf("%d ", st.e.Now())+fmt.Sprintf(format, args...))
}

func (st *fzRun) spawn(name string, body, depth int) {
	b := &fzBody{st: st, name: name, ops: st.prog.bodies[body], depth: depth,
		held: make([]int, len(st.gates)), acquiring: -1}
	st.e.Spawn(name, b.step)
}

func (st *fzRun) event(action byte) {
	st.logf("event %d", action)
	switch action % 3 {
	case 0:
		st.wakeOne()
	case 1:
		st.spawn(fmt.Sprintf("ev%d", action), int(action/3)%len(st.prog.bodies), 1)
	}
}

func (st *fzRun) wakeOne() {
	if len(st.mailbox) == 0 {
		return
	}
	wake := st.mailbox[0]
	st.mailbox = st.mailbox[1:]
	wake()
}

// fzBody interprets one body's ops from pc. The same code serves all
// three process forms: a blocking primitive reports false in a
// coroutine or goroutine process, so step runs the whole body in one
// call, while a step process returns when a primitive reports that it
// parked and continues from pc on its next activation.
type fzBody struct {
	st    *fzRun
	name  string
	ops   []fzOp
	pc    int
	depth int
	held  []int
	// acquiring is the gate the process parked on in Acquire, or -1.
	acquiring int
}

func (b *fzBody) step(p fzProc) {
	st := b.st
	if b.acquiring >= 0 {
		b.acquired()
	}
	for b.pc < len(b.ops) {
		if st.draining {
			return
		}
		i, op := b.pc, b.ops[b.pc]
		b.pc++
		if op.kind == fzPanic {
			st.logf("%s op panic", b.name)
			panic(fmt.Sprintf("%s op %d panics", b.name, i))
		}
		st.logf("%s op %d/%d", b.name, op.kind%12, op.arg)
		g := int(op.arg) % len(st.gates)
		switch op.kind % 12 {
		case 0:
			if p.Sleep(st.time(op.arg % 8)) {
				return
			}
		case 1:
			if p.SleepUntil(st.time(op.arg % 32)) {
				return
			}
		case 2:
			if p.WaitFor(func(wake func()) { st.mailbox = append(st.mailbox, wake) }) {
				return
			}
		case 3:
			st.wakeOne()
		case 4:
			st.waiting[g]++
			b.acquiring = g
			if st.gates[g].Acquire(p) {
				return
			}
			b.acquired()
		case 5:
			if b.held[g] > 0 {
				b.held[g]--
				st.gates[g].Release()
			}
		case 6:
			k := int(op.arg) % len(st.barriers)
			if st.arrived[k] < st.prog.barrierSizes[k] {
				st.arrived[k]++
				if st.barriers[k].Wait(p) {
					return
				}
			}
		case 7:
			st.e.After(st.time(op.arg%8), st.wakeOne)
		case 8:
			if b.held[g] > 0 {
				b.held[g]--
				st.e.After(st.time(op.arg%8), st.gates[g].Release)
			}
		case 9:
			if b.depth < 2 {
				st.spawn(fmt.Sprintf("%s.%d", b.name, i), int(op.arg)%len(st.prog.bodies), b.depth+1)
			}
		case 10:
			st.servers[op.arg%2].Reserve(p.Now(), st.time(op.arg%5))
		case 11:
			if b.depth < 2 {
				child, depth := fmt.Sprintf("%s.e%d", b.name, i), b.depth+1
				st.e.After(st.time(op.arg%8), func() { st.spawn(child, int(op.arg)%len(st.prog.bodies), depth) })
			}
		}
	}
	if st.draining {
		return
	}
	for g, n := range b.held {
		for ; n > 0; n-- {
			st.gates[g].Release()
		}
	}
}

// acquired books the gate slot the body's Acquire has granted.
func (b *fzBody) acquired() {
	b.st.waiting[b.acquiring]--
	b.held[b.acquiring]++
	b.acquiring = -1
}

// drain wakes every blocked process: mailbox waiters, gate waiters (by
// releasing on their behalf) and barrier waiters (by spawning the
// missing arrivals). Woken processes see draining and return.
func (st *fzRun) drain() {
	for len(st.mailbox) > 0 {
		st.wakeOne()
	}
	for g, gate := range st.gates {
		for st.waiting[g] > 0 {
			gate.Release()
		}
	}
	for b, barrier := range st.barriers {
		if st.arrived[b] == 0 {
			continue
		}
		for k := st.arrived[b]; k < st.prog.barrierSizes[b]; k++ {
			st.arrived[b]++
			arrived := false
			st.e.Spawn(fmt.Sprintf("fill%d.%d", b, k), func(p fzProc) {
				if !arrived {
					arrived = true
					barrier.Wait(p)
				}
			})
		}
	}
}

func compareRuns(t *testing.T, form string, got, want fzResult) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: Run error = %q, reference %q", form, got.err, want.err)
	}
	if got.panic != want.panic {
		t.Fatalf("%s: Run panicked with %q, reference %q", form, got.panic, want.panic)
	}
	if got.now != want.now {
		t.Fatalf("%s: Run stopped at t=%d, reference t=%d", form, got.now, want.now)
	}
	// A process that panicked never finishes, so only the drain after a
	// deadlock must leave nothing blocked.
	if want.panic == "" && want.drain != "" {
		t.Fatalf("drain left processes blocked: %s", want.drain)
	}
	if got.drain != want.drain {
		t.Fatalf("%s: drain Run error = %q, reference %q", form, got.drain, want.drain)
	}
	if got.events != want.events {
		t.Errorf("%s: Events() = %d, reference %d", form, got.events, want.events)
	}
	if i := firstDiff(got.trace, want.trace); i >= 0 {
		t.Errorf("%s: tracer streams diverge at record %d of %d/%d: %s vs reference %s",
			form, i, len(got.trace), len(want.trace), at(got.trace, i), at(want.trace, i))
	}
	if i := firstDiff(got.log, want.log); i >= 0 {
		t.Errorf("%s: program logs diverge at line %d of %d/%d: %s vs reference %s",
			form, i, len(got.log), len(want.log), at(got.log, i), at(want.log, i))
	}
}

func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at[T any](s []T, i int) string {
	if i >= len(s) {
		return "<end>"
	}
	return fmt.Sprint(s[i])
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// recTracer records every callback in order.
type recTracer struct{ recs []traceRec }

type traceRec struct {
	kind       byte
	t1, t2     Time
	name, what string
}

func (r *recTracer) Event(t Time) { r.recs = append(r.recs, traceRec{kind: 'E', t1: t}) }
func (r *recTracer) Process(t Time, name, kind string) {
	r.recs = append(r.recs, traceRec{kind: 'P', t1: t, name: name, what: kind})
}
func (r *recTracer) Reserve(res string, start, end Time) {
	r.recs = append(r.recs, traceRec{kind: 'R', t1: start, t2: end, name: res})
}
func (r *recTracer) Span(track, name string, start, end Time) {
	r.recs = append(r.recs, traceRec{kind: 'S', t1: start, t2: end, name: track, what: name})
}

// Engine adapters -------------------------------------------------------

// fzEngine is the surface the interpreter drives, implemented over
// Engine (coroutine and step processes) and the reference engine.
type fzEngine interface {
	Now() Time
	At(t Time, fn func())
	After(d Time, fn func())
	Spawn(name string, body func(fzProc))
	Run() error
	Events() int64
	SetTracer(Tracer)
	newGate(name string, cap int) fzGate
	newBarrier(name string, n int) fzBarrier
}

type fzProc interface {
	Now() Time
	Sleep(d Time) bool
	SleepUntil(t Time) bool
	WaitFor(register func(wake func())) bool
}

type fzGate interface {
	Acquire(p fzProc) bool
	Release()
}

type fzBarrier interface{ Wait(p fzProc) bool }

type coroEngine struct{ *Engine }

func (e coroEngine) Spawn(name string, body func(fzProc)) {
	e.Engine.Spawn(name, func(p *Proc) { body(p) })
}
func (e coroEngine) newGate(name string, cap int) fzGate { return coroGate{NewGate(name, cap)} }
func (e coroEngine) newBarrier(name string, n int) fzBarrier {
	return coroBarrier{NewBarrier(name, n)}
}

// stepEngine runs every body as a step process on Engine.
type stepEngine struct{ coroEngine }

func (e stepEngine) Spawn(name string, body func(fzProc)) {
	e.Engine.StartStep(new(Proc), name, StepFunc(func(p *Proc) { body(p) }))
}

type coroGate struct{ *Gate }

func (g coroGate) Acquire(p fzProc) bool { return g.Gate.Acquire(p.(*Proc)) }

type coroBarrier struct{ *Barrier }

func (b coroBarrier) Wait(p fzProc) bool { return b.Barrier.Wait(p.(*Proc)) }

type refEngineAdapter struct{ *refEngine }

func (e refEngineAdapter) Spawn(name string, body func(fzProc)) {
	e.refEngine.Spawn(name, func(p *refProc) { body(refProcAdapter{p}) })
}

// refProcAdapter reports false from every blocking call: a goroutine
// process blocks in it instead of parking.
type refProcAdapter struct{ *refProc }

func (p refProcAdapter) Sleep(d Time) bool {
	p.refProc.Sleep(d)
	return false
}

func (p refProcAdapter) SleepUntil(t Time) bool {
	p.refProc.SleepUntil(t)
	return false
}

func (p refProcAdapter) WaitFor(register func(wake func())) bool {
	p.refProc.WaitFor(register)
	return false
}
func (e refEngineAdapter) newGate(name string, cap int) fzGate {
	return refGateAdapter{newRefGate(name, cap)}
}
func (e refEngineAdapter) newBarrier(name string, n int) fzBarrier {
	return refBarrierAdapter{newRefBarrier(name, n)}
}

type refGateAdapter struct{ *refGate }

func (g refGateAdapter) Acquire(p fzProc) bool {
	g.refGate.Acquire(p.(refProcAdapter).refProc)
	return false
}

type refBarrierAdapter struct{ *refBarrier }

func (b refBarrierAdapter) Wait(p fzProc) bool {
	b.refBarrier.Wait(p.(refProcAdapter).refProc)
	return false
}
