package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported; with fewer, the percentile is one or two
// outliers and says nothing repeatable.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of xs (0.5 < q < 1). The
// second result is false when fewer than minBeyond samples lie beyond
// it, in which case the value must not be reported.
func tail(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || float64(n)*(1-q) < minBeyond-1e-9 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	return s[max(rank, 0)], true
}

// digest hashes records in a canonical order: sorted, so the digest of
// a sweep does not depend on the order its points completed in.
func digest(records [][]byte) string {
	s := make([]string, len(records))
	for i, r := range records {
		s[i] = string(r)
	}
	sort.Strings(s)
	h := sha256.New()
	for _, r := range s {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// span is one host-time interval at a layer boundary. Key ties the spans
// of one request together across layers.
type span struct {
	Layer string
	Key   string
	Start time.Time
	End   time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// selfTimes returns, for each parent span, its duration minus the part
// covered by child spans of the same key that lie inside it. Each child
// is charged to exactly one parent: the latest-starting parent of its
// key that contains it, so two concurrent requests for the same key do
// not both subtract the same backend call.
func selfTimes(parents, children []span) []time.Duration {
	byKey := map[string][]int{}
	for i, p := range parents {
		byKey[p.Key] = append(byKey[p.Key], i)
	}
	covered := make([][]span, len(parents))
	for _, c := range children {
		best := -1
		for _, i := range byKey[c.Key] {
			p := parents[i]
			if p.Start.After(c.Start) || p.End.Before(c.End) {
				continue
			}
			if best < 0 || p.Start.After(parents[best].Start) {
				best = i
			}
		}
		if best >= 0 {
			covered[best] = append(covered[best], c)
		}
	}
	out := make([]time.Duration, len(parents))
	for i, p := range parents {
		out[i] = p.dur() - union(covered[i])
	}
	return out
}

// union is the total length covered by possibly overlapping spans.
func union(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	var total time.Duration
	cur := s[0]
	for _, x := range s[1:] {
		if x.Start.After(cur.End) {
			total += cur.dur()
			cur = x
			continue
		}
		if x.End.After(cur.End) {
			cur.End = x.End
		}
	}
	return total + cur.dur()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
