package bench

import (
	"encoding/json"

	"piumagcn/internal/piuma/kernels"
)

// This file gives Checkpoint a deterministic serialized form so that
// completed sweep points can ride through the internal/store journal
// and survive a process crash: a checkpoint encoded on one boot and
// restored on the next resumes the sweep exactly where it stopped,
// with the restored values bit-identical to the originals (JSON
// round-trips Go's float64 and int64 exactly under the shortest-
// representation encoder).

// Point is the serialized form of one completed sweep point. Kind names
// the Go type of the value: one of the two types the sweeps store,
// "json" for a best-effort encoding of any other type, or "opaque" for
// a value that could not be encoded at all. The last two restore as
// presence-only points: Lookup hits, but type-asserting callers fall
// back to re-computing the value.
type Point struct {
	Label   string          `json:"label"`
	Kind    string          `json:"kind"`
	Value   json.RawMessage `json:"value,omitempty"`
	Summary string          `json:"summary,omitempty"`
}

const (
	kindResult     = "kernels.Result"
	kindWalkResult = "kernels.WalkResult"
	kindJSON       = "json"
	kindOpaque     = "opaque"
)

// encodePoint serializes one completed point. A kernels.Result or
// kernels.WalkResult keeps its type's kind, so a journaled point
// decodes back to the concrete type its experiment stored (and the
// resume fast path in sweep's type assertion keeps hitting). Other
// value types degrade gracefully rather than failing the checkpoint:
// best-effort JSON under kind "json", or a value-less "opaque" point
// when the value cannot be marshaled — either way the label and
// summary survive, so partial reports and presence-based resume still
// work.
func encodePoint(label string, value any, summary string) Point {
	p := Point{Label: label, Summary: summary, Kind: kindOpaque}
	raw, err := json.Marshal(value)
	if err != nil {
		return p
	}
	switch value.(type) {
	case kernels.Result:
		p.Kind = kindResult
	case kernels.WalkResult:
		p.Kind = kindWalkResult
	default:
		p.Kind = kindJSON
	}
	p.Value = raw
	return p
}

// decodePointValue recovers the Go value of a serialized point. Points
// of other or degraded kinds, and values that do not decode as their
// kind (a journal is outside input), restore as their raw JSON —
// present for Lookup, useless to type asserts, which is the safe
// fallback (the caller re-computes).
func decodePointValue(p Point) any {
	switch p.Kind {
	case kindResult:
		var v kernels.Result
		if json.Unmarshal(p.Value, &v) == nil {
			return v
		}
	case kindWalkResult:
		var v kernels.WalkResult
		if json.Unmarshal(p.Value, &v) == nil {
			return v
		}
	}
	return p.Value
}

// Points snapshots the checkpoint's completed points in completion
// order, serialized. Encoding is deterministic: the same checkpoint
// contents always yield the same bytes.
func (c *Checkpoint) Points() []Point {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Point, 0, len(c.order))
	for _, label := range c.order {
		pt := c.points[label]
		out = append(out, encodePoint(label, pt.value, pt.summary))
	}
	return out
}

// Restore replays serialized points into the checkpoint (normally a
// fresh one, before the experiment reruns). Restored points do not
// notify the observer — they were journaled by the boot that computed
// them. Duplicate labels keep Complete's semantics: last value wins,
// first position kept.
func (c *Checkpoint) Restore(points []Point) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range points {
		if p.Label == "" {
			continue
		}
		if _, seen := c.points[p.Label]; !seen {
			c.order = append(c.order, p.Label)
		}
		c.points[p.Label] = checkpointPoint{value: decodePointValue(p), summary: p.Summary}
	}
}

// SetObserver registers fn to be called with the serialized form of
// every subsequently completed point, in completion order. This is the
// durability hook: the serve layer journals each point the moment it
// completes, so a crash mid-sweep loses at most the point in flight.
// The callback runs on the completing goroutine and must not call back
// into the checkpoint.
func (c *Checkpoint) SetObserver(fn func(Point)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.observer = fn
	c.mu.Unlock()
}
