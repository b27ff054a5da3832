package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1 {
		t.Fatal("Second.Seconds() != 1")
	}
	if (5 * Nanosecond).Nanoseconds() != 5 {
		t.Fatal("Nanoseconds conversion")
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(10, func() { order = append(order, 2) })
	e.After(5, func() { order = append(order, 1) })
	e.After(10, func() { order = append(order, 3) }) // same time: FIFO by seq
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("final time = %d", e.Now())
	}
	if e.Events() != 3 {
		t.Fatalf("events = %d", e.Events())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.After(-1, func() {})
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	var wakeTimes []Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		wakeTimes = append(wakeTimes, p.Now())
		p.Sleep(50)
		wakeTimes = append(wakeTimes, p.Now())
		p.SleepUntil(120) // in the past: no-op
		wakeTimes = append(wakeTimes, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{100, 150, 150}
	for i := range want {
		if wakeTimes[i] != want[i] {
			t.Fatalf("wakeTimes = %v, want %v", wakeTimes, want)
		}
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(10)
					trace = append(trace, name)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("nondeterministic trace length")
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("nondeterministic trace at %d: %v vs %v", j, got, first)
				}
			}
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) {
		p.WaitFor(func(wake func()) {
			// Never call wake.
		})
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestServerFIFO(t *testing.T) {
	var s Server
	start, end := s.Reserve(0, 10)
	if start != 0 || end != 10 {
		t.Fatalf("first reservation %d-%d", start, end)
	}
	// Second request at time 3 queues behind the first.
	start, end = s.Reserve(3, 5)
	if start != 10 || end != 15 {
		t.Fatalf("queued reservation %d-%d", start, end)
	}
	// Request after idle gap starts immediately.
	start, end = s.Reserve(100, 5)
	if start != 100 || end != 105 {
		t.Fatalf("idle reservation %d-%d", start, end)
	}
	if s.BusyTime() != 20 {
		t.Fatalf("busy = %d", s.BusyTime())
	}
	if u := s.Utilization(105); u <= 0.18 || u >= 0.2 {
		t.Fatalf("utilization = %v", u)
	}
	if s.Backlog(100) != 5 {
		t.Fatalf("backlog = %d", s.Backlog(100))
	}
	if s.Backlog(1000) != 0 {
		t.Fatal("backlog after drain should be 0")
	}
}

// Property: a server never over-commits — total busy time through any
// sequence of reservations equals the sum of durations, and completion
// times are non-decreasing (FIFO).
func TestQuickServerConservation(t *testing.T) {
	f := func(durs []uint16, gaps []uint16) bool {
		var s Server
		now := Time(0)
		var sum Time
		lastEnd := Time(0)
		for i, d := range durs {
			if i < len(gaps) {
				now += Time(gaps[i])
			}
			dur := Time(d)
			_, end := s.Reserve(now, dur)
			sum += dur
			if end < lastEnd {
				return false
			}
			lastEnd = end
		}
		return s.BusyTime() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGateBoundsConcurrency(t *testing.T) {
	e := NewEngine()
	g := NewGate("dma", 2)
	inFlight := 0
	maxInFlight := 0
	for i := 0; i < 6; i++ {
		e.Spawn("worker", func(p *Proc) {
			g.Acquire(p)
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			done := p.Now() + 100
			p.eng.At(done, func() {
				inFlight--
				g.Release()
			})
			p.SleepUntil(done)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInFlight != 2 {
		t.Fatalf("max in flight = %d, want 2", maxInFlight)
	}
	if g.Held() != 0 {
		t.Fatalf("gate still held: %d", g.Held())
	}
}

func TestGateReleasePanicsWhenUnheld(t *testing.T) {
	g := NewGate("g", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Release()
}

func TestBarrier(t *testing.T) {
	e := NewEngine()
	b := NewBarrier("done", 3)
	var times []Time
	delays := []Time{10, 30, 20}
	for _, d := range delays {
		d := d
		e.Spawn("t", func(p *Proc) {
			p.Sleep(d)
			b.Wait(p)
			times = append(times, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("only %d processes passed the barrier", len(times))
	}
	for _, tm := range times {
		if tm != 30 {
			t.Fatalf("process passed barrier at %d, want 30", tm)
		}
	}
}

func TestBarrierOverflowPanics(t *testing.T) {
	e := NewEngine()
	b := NewBarrier("b", 1)
	e.Spawn("a", func(p *Proc) {
		b.Wait(p)
		defer func() {
			if recover() == nil {
				t.Error("expected overflow panic")
			}
		}()
		b.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestProcessPanicPropagatesFromRun pins where a panic inside a process
// body goes. TestBarrierOverflowPanics covers a recover deferred inside
// the body; without one, the panic unwinds the process and comes out of
// Engine.Run on the caller's goroutine, where it can be recovered.
func TestProcessPanicPropagatesFromRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		_ = e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v from Run, want the process's panic value", got)
	}
	if e.Now() != 5 {
		t.Fatalf("panic surfaced at t=%d, want 5", e.Now())
	}
	if e.running {
		t.Fatal("Run left its reentrancy guard set while unwinding")
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	childRan := false
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5)
		p.Engine().Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childRan = true
		})
		p.Sleep(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child process never ran")
	}
}

func TestManyProcessesStress(t *testing.T) {
	e := NewEngine()
	const n = 2048 // a full 32-core PIUMA die's thread count
	count := 0
	for i := 0; i < n; i++ {
		e.Spawn("t", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(Time(1 + j))
			}
			count++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineQueue keeps 512 events pending, about the loop-unrolled
// kernel's queue depth, with a delay mix like its own: a 16 ns issue, a
// 47.5 ns local read and a ~300 ns remote read in equal shares, plus a
// 1 % tail at 10 µs, past the calendar's horizon. One op is one event.
func BenchmarkEngineQueue(b *testing.B) {
	const pending = 512
	delays := [...]Time{16 * Nanosecond, 47500, 299500}
	b.ReportAllocs()
	e := NewEngine()
	scheduled, rng := 0, uint32(1)
	var tick func()
	tick = func() {
		if scheduled == b.N {
			return
		}
		scheduled++
		rng = rng*1664525 + 1013904223
		d := 10 * Microsecond
		if r := rng >> 8; r%100 != 0 {
			d = delays[r%3]
		}
		e.After(d, tick)
	}
	for range min(pending, b.N) {
		tick()
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkProcessSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStepSwitch is BenchmarkProcessSwitch for a step process:
// each iteration is one sleep round trip, a scheduled wake-up and a
// call of the step.
func BenchmarkStepSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := 0
	e.StartStep(new(Proc), "p", StepFunc(func(p *Proc) {
		for n < b.N {
			n++
			if p.Sleep(1) {
				return
			}
		}
	}))
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestRunReentrancyRejected(t *testing.T) {
	e := NewEngine()
	var innerErr error
	e.After(1, func() {
		innerErr = e.Run()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if innerErr == nil {
		t.Fatal("expected error for reentrant Run")
	}
}

// The engine hot paths allocate nothing: a process sleep round trip
// (schedule, dispatch, coroutine switch there and back), an At-scheduled
// event, and a contended Gate hand-off. Each is measured from inside a
// running process so the engine keeps running between iterations.
func TestSleepAllocatesNothing(t *testing.T) {
	e := NewEngine()
	var allocs float64
	e.Spawn("sleeper", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() { p.Sleep(1) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Sleep round trip allocates %.1f objects, want 0", allocs)
	}
}

func TestAtEventAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fired := 0
	tick := func() { fired++ }
	var allocs float64
	e.Spawn("scheduler", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() {
			e.At(p.Now()+1, tick)
			p.Sleep(1)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1001 {
		t.Fatalf("fired %d events, want 1001", fired)
	}
	if allocs != 0 {
		t.Fatalf("At-scheduled event allocates %.1f objects, want 0", allocs)
	}
}

func TestContendedGateAllocatesNothing(t *testing.T) {
	e := NewEngine()
	g := NewGate("g", 1)
	done := false
	cycle := func(p *Proc) {
		g.Acquire(p)
		p.Sleep(1)
		g.Release()
	}
	e.Spawn("holder", func(p *Proc) {
		for !done {
			cycle(p)
		}
	})
	var allocs float64
	e.Spawn("measured", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() { cycle(p) })
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Every cycle after the first waits for the holder's slot: each
	// Acquire blocks and each Release hands the slot to the other side.
	if e.Now() < 2000 {
		t.Fatalf("gate was not contended: finished at t=%d", e.Now())
	}
	if allocs != 0 {
		t.Fatalf("contended Gate Acquire/Release allocates %.1f objects, want 0", allocs)
	}
}

// A step process's sleep round trip allocates nothing either: a run
// with a thousand times the sleeps allocates as much as one with ten.
func TestStepSleepAllocatesNothing(t *testing.T) {
	allocs := func(sleeps int) float64 {
		return testing.AllocsPerRun(10, func() {
			e := NewEngine()
			n := 0
			e.StartStep(new(Proc), "sleeper", StepFunc(func(p *Proc) {
				for n < sleeps {
					n++
					if p.Sleep(1) {
						return
					}
				}
			}))
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(10000); few != many {
		t.Fatalf("10 sleeps allocate %.1f objects, 10000 sleeps %.1f", few, many)
	}
}

// StepFunc adapts a closure to Stepper, for tests that write a step
// process inline.
type StepFunc func(*Proc)

func (f StepFunc) Step(p *Proc) { f(p) }

// A step that parks must return: parking again in the same activation
// would queue the process's one wake-up event a second time, so
// schedule panics before it touches the queue. The engine stays
// usable: the first wake-up is still queued, once, and a fresh program
// run on the same engine afterwards matches the reference engine.
func TestStepParkTwicePanics(t *testing.T) {
	for i, seed := range equivalenceSeeds {
		e := NewEngine()
		activations := 0
		var twice Proc
		e.StartStep(&twice, "twice", StepFunc(func(p *Proc) {
			activations++
			if activations == 1 {
				p.Sleep(1)
				p.Sleep(2)
			}
		}))
		got := func() (v any) {
			defer func() { v = recover() }()
			_ = e.Run()
			return nil
		}()
		if msg, _ := got.(string); !strings.Contains(msg, `"twice" parked while its wake-up is already queued`) {
			t.Fatalf("recovered %v from Run, want the parked-twice panic", got)
		}
		// The Sleep(1) wake-up fires once and the step finishes.
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if activations != 2 || e.Now() != 1 || e.Events() != 2 {
			t.Fatalf("after the panic: %d activations, t=%d, %d events; want 2, t=1, 2 events",
				activations, e.Now(), e.Events())
		}
		// The reference engine reaches the same time and event count.
		ref := newRefEngine()
		ref.At(0, func() {})
		ref.At(1, func() {})
		if err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		prog := decodeProgram(seed)
		compareRuns(t, fmt.Sprintf("seed %d after park-twice", i),
			runProgram(stepEngine{coroEngine{e}}, prog), runProgram(refEngineAdapter{ref}, prog))
	}
}
