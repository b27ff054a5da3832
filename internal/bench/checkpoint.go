package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// This file is the resilience seam between experiments and their
// callers. A Checkpoint records each completed sweep point as an
// experiment progresses, so that when a run is killed mid-sweep (the
// serve RunTimeout, a canceled CLI) the caller can surface a partial
// report instead of nothing, and a retried run resumes from the last
// completed point instead of re-simulating the whole sweep.
//
// Transient marks an error as worth retrying; the serve layer's
// bounded-retry loop consults IsTransient before re-running an
// experiment against the same checkpoint.

// Checkpoint accumulates completed sweep points keyed by their run
// label. Safe for concurrent use; a nil *Checkpoint is a valid no-op
// (Lookup always misses, Complete discards).
type Checkpoint struct {
	mu     sync.Mutex
	points map[string]checkpointPoint
	order  []string
	reused int
	// observer, when set, receives the serialized form of each newly
	// completed point (see SetObserver in checkpoint_codec.go).
	observer func(Point)
}

type checkpointPoint struct {
	value   any
	summary string
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{points: make(map[string]checkpointPoint)}
}

type checkpointKey struct{}

// WithCheckpoint returns a context carrying cp; the experiments' sweeps
// consult it to skip already-completed points.
func WithCheckpoint(ctx context.Context, cp *Checkpoint) context.Context {
	return context.WithValue(ctx, checkpointKey{}, cp)
}

// CheckpointFrom extracts the checkpoint from ctx (nil when absent).
func CheckpointFrom(ctx context.Context) *Checkpoint {
	cp, _ := ctx.Value(checkpointKey{}).(*Checkpoint)
	return cp
}

// Lookup returns the stored value for a completed point. The second
// result reports whether the point was found; on a hit the reuse
// counter increments (surfaced in partial reports and metrics).
func (c *Checkpoint) Lookup(label string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.points[label]
	if ok {
		c.reused++
	}
	return p.value, ok
}

// Complete records one finished sweep point. summary is a short
// human-readable digest used when listing checkpointed points in a
// partial report. Re-completing a label overwrites the value but keeps
// its original position. The observer (if any) is notified outside the
// lock, on the completing goroutine.
func (c *Checkpoint) Complete(label string, value any, summary string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, seen := c.points[label]; !seen {
		c.order = append(c.order, label)
	}
	c.points[label] = checkpointPoint{value: value, summary: summary}
	observer := c.observer
	c.mu.Unlock()
	if observer != nil {
		observer(encodePoint(label, value, summary))
	}
}

// Len returns the number of completed points.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.points)
}

// Reused returns how many lookups hit a completed point — i.e. how much
// work a resumed run skipped.
func (c *Checkpoint) Reused() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reused
}

// PartialReport renders the checkpointed points of an interrupted run
// as a report, or nil when no point completed. The serve layer attaches
// it to timed-out/canceled/failed runs so clients see how far the sweep
// got; a subsequent retry resumes past every listed point.
func (c *Checkpoint) PartialReport(e Experiment) *Report {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.points) == 0 {
		return nil
	}
	r := &Report{ID: e.ID, Title: e.Title + " (partial)"}
	var b strings.Builder
	for _, label := range c.order {
		fmt.Fprintf(&b, "%s: %s\n", label, c.points[label].summary)
	}
	r.Add(fmt.Sprintf("Completed sweep points (%d)", len(c.points)), b.String())
	r.Note("run interrupted before completion; a retry resumes after the %d checkpointed point(s)", len(c.points))
	if c.reused > 0 {
		r.Note("%d point(s) were reused from an earlier attempt", c.reused)
	}
	return r
}

// transientError wraps an error to mark it retryable.
type transientError struct{ err error }

func (t *transientError) Error() string   { return t.err.Error() }
func (t *transientError) Unwrap() error   { return t.err }
func (t *transientError) Transient() bool { return true }

// Transient marks err as transient: the serve retry loop re-runs
// experiments that fail with a transient error (resuming from the
// checkpoint). A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether any error in err's chain marks itself
// transient (an interface check, so external error types can opt in by
// implementing `Transient() bool`). Context cancellation/expiry is
// never transient: the caller decided to stop.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}
