package sim

import "math/bits"

// event is one scheduled dispatch: a process wake-up when p is set,
// otherwise a call to fn. A process has at most one pending wake-up, so
// its event lives inside its Proc and is linked into the queue in
// place; function events come from the calendar's free list. next links
// an event into a slot list or the free list.
type event struct {
	t    Time
	seq  int64
	next *event
	p    *Proc
	fn   func()
	// queued is set while a process's wake-up is in the queue.
	queued bool
}

func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Calendar geometry. A slot spans 512 ps, so it holds at most two points
// of the 500 ps grid most kernel times fall on, and the ring's 4 096
// slots reach about 2.1 µs past the current slot, over twice the longest
// delay the loop-unrolled kernel schedules on the default machine.
// Longer delays go to the overflow heap.
const (
	slotShift = 9
	nSlots    = 1 << 12
	slotMask  = nSlots - 1
)

// calendar is the engine's event queue, a calendar queue (Brown, CACM
// 1988) for time that only moves forward. It pops events in (t, seq)
// order, like a heap over all of them would.
//
// Events whose slot (t >> slotShift) lies within nSlots of the current
// slot sit in a ring of per-slot lists, slot s at ring[s&slotMask]; an
// occupancy bitmap finds the next non-empty slot. Because no event is
// scheduled before now, the current slot only advances, and every
// ring event lies in [cur, cur+nSlots). Events beyond that horizon wait
// in the overflow heap and move into the ring as soon as the current
// slot advances far enough to bring their slot within it; by then that
// slot is empty, and every later push to it carries a larger seq.
//
// The lists link the events themselves, so a push or pop copies no
// event: a process's wake-up is the event in its Proc, and a function
// event is taken from the free list and returned to it when it fires.
type calendar struct {
	// cur is the current slot: the slot of the last popped event, or
	// an earlier one.
	cur  int64
	ring *[nSlots]slotList
	// occupied has bit i%64 of word i/64 set while ring[i] is
	// non-empty and not the current slot, and summary has bit w set
	// while occupied[w] != 0. Events pop only from the current slot, so
	// a slot's bit is cleared when it becomes current, not when it
	// empties, and pushes to the current slot leave the bitmap alone.
	occupied [nSlots / 64]uint64
	summary  uint64
	// free holds the function events not in the queue.
	free *event
	// inRing counts the events in the ring.
	inRing   int
	overflow eventHeap
}

// slotList is one slot's events in (t, seq) order. tail is stale while
// head is nil.
type slotList struct{ head, tail *event }

func (q *calendar) len() int { return q.inRing + len(q.overflow) }

// funcBlock is how many function events newFunc allocates at once
// when the free list is empty.
const funcBlock = 64

// newFunc returns a function event for fn from the free list.
func (q *calendar) newFunc(fn func()) *event {
	if q.free == nil {
		block := make([]event, funcBlock)
		for i := range block[1:] {
			block[i].next = &block[i+1]
		}
		q.free = &block[0]
	}
	ev := q.free
	q.free = ev.next
	ev.fn = fn
	return ev
}

// freeFunc returns a fired function event to the free list.
func (q *calendar) freeFunc(ev *event) {
	ev.fn = nil
	ev.next = q.free
	q.free = ev
}

func (q *calendar) push(ev *event) {
	if s := int64(ev.t >> slotShift); s-q.cur < nSlots {
		q.insert(s, ev)
	} else {
		q.overflow.push(ev)
	}
}

// insert links ev into slot s's list at its (t, seq) place. Events
// reach a slot in seq order (see calendar), so that place is the tail
// unless ev's time is earlier than the last one's.
func (q *calendar) insert(s int64, ev *event) {
	if q.ring == nil {
		q.ring = new([nSlots]slotList)
	}
	ev.next = nil
	i := s & slotMask
	l := &q.ring[i]
	switch {
	case l.head == nil:
		l.head, l.tail = ev, ev
		if s != q.cur {
			q.occupied[i>>6] |= 1 << (i & 63)
			q.summary |= 1 << (i >> 6)
		}
	case !ev.before(l.tail):
		l.tail.next = ev
		l.tail = ev
	default:
		at := &l.head
		for !ev.before(*at) {
			at = &(*at).next
		}
		ev.next = *at
		*at = ev
	}
	q.inRing++
}

// pop removes and returns the earliest event. The queue must not be
// empty.
func (q *calendar) pop() *event {
	if q.inRing == 0 {
		// Everything is beyond the horizon: jump to the earliest event.
		q.advance(int64(q.overflow[0].t >> slotShift))
	}
	i := q.cur & slotMask
	if q.ring[i].head == nil {
		i = q.nextOccupied(i)
		q.advance(q.cur + ((i - q.cur) & slotMask))
		if q.occupied[i>>6] &^= 1 << (i & 63); q.occupied[i>>6] == 0 {
			q.summary &^= 1 << (i >> 6)
		}
	}
	l := &q.ring[i]
	ev := l.head
	l.head = ev.next
	q.inRing--
	return ev
}

// advance makes s the current slot and moves the overflow events that
// are now within the horizon into the ring, in (t, seq) order.
func (q *calendar) advance(s int64) {
	q.cur = s
	for len(q.overflow) > 0 && int64(q.overflow[0].t>>slotShift)-s < nSlots {
		ev := q.overflow.pop()
		q.insert(int64(ev.t>>slotShift), ev)
	}
}

// nextOccupied returns the first non-empty ring index at or after i in
// ring order, wrapping past the end. The ring must not be empty.
func (q *calendar) nextOccupied(i int64) int64 {
	w := i >> 6
	if m := q.occupied[w] &^ (1<<(i&63) - 1); m != 0 {
		return w<<6 | int64(bits.TrailingZeros64(m))
	}
	later := q.summary &^ (uint64(1)<<(w+1) - 1)
	if later == 0 {
		// Wrap: the lowest non-empty word, which may be w itself below i.
		later = q.summary
	}
	w = int64(bits.TrailingZeros64(later))
	return w<<6 | int64(bits.TrailingZeros64(q.occupied[w]))
}

// eventHeap is a binary min-heap ordered by (t, seq), the calendar's
// overflow.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = nil
	q = q[:last]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < last && q[l].before(q[least]) {
			least = l
		}
		if r := 2*i + 2; r < last && q[r].before(q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}
