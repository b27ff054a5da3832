package sim

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"testing"
)

// queueDelay draws a delay from a mix that reaches every part of the
// calendar: inside one slot and off the 500 ps grid, on the grid, on
// slot boundaries, zero, either side of the ring's horizon, and several
// horizons out.
func queueDelay(r *rand.Rand) Time {
	switch r.IntN(6) {
	case 0:
		return Time(r.IntN(1 << slotShift))
	case 1:
		return Time(r.IntN(64)) * 500
	case 2:
		return Time(r.IntN(nSlots)) << slotShift
	case 3:
		return 0
	case 4:
		return horizon - 1 + Time(r.IntN(3))
	default:
		return Time(r.Int64N(4 * horizon))
	}
}

// The calendar pops random push/pop streams in the same order as a
// container/heap ordered by (t, seq). Every pushed time is at or after
// the last popped one, as in the engine. The push share cycles so the
// queue grows, shrinks and empties, and an empty ring jumps straight to
// the overflow heap. Pushes mix the wake-up events of a few processes,
// each pushed again only after it is popped, with function events from
// the free list, which go back to it when popped; the free list ends
// up holding as many events as were ever queued at once, rounded up to
// whole blocks.
func TestCalendarMatchesHeap(t *testing.T) {
	for seed := range uint64(16) {
		r := rand.New(rand.NewPCG(seed, 1))
		var q calendar
		var ref refHeap
		var now Time
		var seq int64
		procs := make([]Proc, 8)
		idle := make([]*event, len(procs))
		for i := range procs {
			procs[i].wakeup.p = &procs[i]
			idle[i] = &procs[i].wakeup
		}
		funcs, peak := 0, 0
		pop := func(step int) {
			got, want := q.pop(), heap.Pop(&ref).(refEvent)
			if got.t != want.t || got.seq != want.seq {
				t.Fatalf("seed %d step %d: popped (t=%d, seq=%d), heap pops (t=%d, seq=%d)",
					seed, step, got.t, got.seq, want.t, want.seq)
			}
			now = got.t
			if got.p != nil {
				idle = append(idle, got)
			} else {
				q.freeFunc(got)
				funcs--
			}
		}
		for step := range 20000 {
			if q.len() != ref.Len() {
				t.Fatalf("seed %d step %d: len %d, heap holds %d", seed, step, q.len(), ref.Len())
			}
			pushPercent := [...]int{70, 50, 30, 0}[step/500%4]
			if ref.Len() > 0 && r.IntN(100) >= pushPercent {
				pop(step)
				continue
			}
			var ev *event
			if k := r.IntN(2 * len(procs)); k < len(idle) {
				ev = idle[k]
				idle[k] = idle[len(idle)-1]
				idle = idle[:len(idle)-1]
			} else {
				ev = q.newFunc(nil)
				funcs++
				peak = max(peak, funcs)
			}
			seq++
			ev.t, ev.seq = now+queueDelay(r), seq
			q.push(ev)
			heap.Push(&ref, refEvent{t: ev.t, seq: ev.seq})
		}
		for ref.Len() > 0 {
			pop(-1)
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: len %d after the heap drained", seed, q.len())
		}
		free := 0
		for ev := q.free; ev != nil; ev = ev.next {
			free++
		}
		if want := (peak + funcBlock - 1) / funcBlock * funcBlock; free != want {
			t.Fatalf("seed %d: %d function events on the free list, want %d: %d were ever queued at once",
				seed, free, want, peak)
		}
	}
}

// queueEngine is the surface TestEngineReuse drives on Engine and on
// the reference engine.
type queueEngine interface {
	Now() Time
	At(t Time, fn func())
	Run() error
}

// An engine keeps dispatching in (t, seq) order when it is reused: after
// a panic escapes Run, and after Run drains the queue. Each of three
// phases schedules a batch of events from the current time and runs
// them; some schedule follow-ups. In the first phase one event panics,
// so the second phase's Run also dispatches the rest of the first
// phase's events; the third starts from an empty queue. Engine and the
// reference engine must log the same events at the same times.
func TestEngineReuse(t *testing.T) {
	run := func(e queueEngine, seed uint64) []string {
		r := rand.New(rand.NewPCG(seed, 2))
		var log []string
		id := 0
		var schedule func(phase int)
		schedule = func(phase int) {
			id++
			me, when := id, e.Now()+queueDelay(r)
			follow, boom := r.IntN(3) == 0, phase == 0 && id == 40
			e.At(when, func() {
				log = append(log, fmt.Sprintf("%d: event %d", e.Now(), me))
				if boom {
					panic(fmt.Sprintf("event %d", me))
				}
				if follow {
					schedule(phase)
				}
			})
		}
		for phase := range 3 {
			for range 100 {
				schedule(phase)
			}
			err := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						log = append(log, fmt.Sprintf("%d: panic %v", e.Now(), v))
					}
				}()
				return e.Run()
			}()
			if err != nil {
				t.Fatalf("seed %d phase %d: %v", seed, phase, err)
			}
		}
		return log
	}
	for seed := range uint64(8) {
		got, want := run(NewEngine(), seed), run(newRefEngine(), seed)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d: logs diverge at line %d of %d/%d: %s vs reference %s",
				seed, i, len(got), len(want), at(got, i), at(want, i))
		}
	}
}
