package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// This file is the resilience seam between experiments and their
// callers. A Checkpoint records each completed sweep point as an
// experiment progresses, so that when a run is killed mid-sweep (the
// serve RunTimeout, a canceled CLI) the caller can surface a partial
// report instead of nothing, and a run the serve layer recovers from
// its journal resumes from the last completed point instead of
// re-simulating the whole sweep.

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

// lookup returns label's stored value when it is an R, the one form a
// sweep can use, and only then counts the reuse. A restored value that
// did not decode as its kind misses, and the sweep simulates the point.
func lookup[R any](c *Checkpoint, label string) (R, bool) {
	var zero R
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.points[label].value.(R)
	if !ok {
		return zero, false
	}
	c.reused++
	return v, true
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

// Reused returns how many completed points were reused — Lookup hits,
// and sweep points that took a stored value — i.e. how much work a
// resumed run skipped.
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
// got.
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
	r.Note("run interrupted before completion; %d sweep point(s) had completed", len(c.points))
	if c.reused > 0 {
		r.Note("%d point(s) were reused from the checkpoint, not re-simulated", c.reused)
	}
	return r
}
