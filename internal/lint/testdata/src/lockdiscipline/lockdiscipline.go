// Package lockdiscipline is a lint fixture: blocking operations under a
// held mutex ("want") versus the sanctioned shapes ("clean").
package lockdiscipline

import (
	"sync"
	"time"
)

// Q is a toy work queue guarded by a mutex.
type Q struct {
	mu    sync.Mutex
	state sync.RWMutex
	wg    sync.WaitGroup
	ch    chan int
	items []int
}

// SendLocked sends on a channel between Lock and Unlock. want.
func (q *Q) SendLocked(v int) {
	q.mu.Lock()
	q.ch <- v
	q.mu.Unlock()
}

// RecvDeferred receives while a deferred unlock holds the lock to the
// end of the function. want.
func (q *Q) RecvDeferred() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return <-q.ch
}

// WaitLocked calls WaitGroup.Wait under a read lock. want.
func (q *Q) WaitLocked() {
	q.state.RLock()
	defer q.state.RUnlock()
	q.wg.Wait()
}

// SleepLocked sleeps while holding the lock. want.
func (q *Q) SleepLocked() {
	q.mu.Lock()
	defer q.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// SelectLocked blocks in a select with no default. want.
func (q *Q) SelectLocked() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case v := <-q.ch:
		return v
	}
}

// TrySend uses select-with-default: a non-blocking attempt. clean.
func (q *Q) TrySend(v int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case q.ch <- v:
		return true
	default:
		return false
	}
}

// SendAfterUnlock releases the lock before the blocking send. clean.
func (q *Q) SendAfterUnlock(v int) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.ch <- v
}

// SpawnWaiter launches a goroutine under the lock; the literal runs on
// its own goroutine and does not inherit the lock. clean.
func (q *Q) SpawnWaiter() {
	q.mu.Lock()
	defer q.mu.Unlock()
	go func() {
		q.wg.Wait()
	}()
}

// SendAfterEarlyUnlock releases the lock only on the early-return
// branch: the path that falls through still holds it at the send.
// want.
func (q *Q) SendAfterEarlyUnlock(v int) {
	q.mu.Lock()
	if v < 0 {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, v)
	q.ch <- v
	q.mu.Unlock()
}

// SendAfterUnlockOnBothPaths unlocks on every path before the send.
// clean.
func (q *Q) SendAfterUnlockOnBothPaths(v int) {
	q.mu.Lock()
	if v < 0 {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.ch <- v
}
