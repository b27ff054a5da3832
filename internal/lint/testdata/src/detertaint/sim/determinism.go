// Package sim stands in for a simulation package, where every print and
// exported result is output: each "want" site must be in expected.txt.
package sim

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"time"
)

// Stamp reads the wall clock. want.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Age reads the wall clock through Since. want.
func Age(t time.Time) time.Duration {
	return time.Since(t)
}

// Jitter uses the process-global generator. want.
func Jitter() int {
	return rand.Intn(8)
}

// JitterV2 uses the process-global v2 generator. want.
func JitterV2() int {
	return randv2.IntN(8)
}

// Seeded builds a local seeded generator. clean.
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(8)
}

// Names leaks map order into the result slice. want.
func Names(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedNames collects then sorts — the canonical pattern. clean.
func SortedNames(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Dump prints in map order. want.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// FloatSum accumulates floats in map order (not associative). want.
func FloatSum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// IntSum is order-free: integer addition commutes exactly. clean.
func IntSum(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// Suppressed demonstrates //lint:ignore. clean.
func Suppressed() int64 {
	//lint:ignore detertaint fixture: proves suppression filters a finding
	return time.Now().UnixNano()
}

// hostNanos is engine self-cost: nothing prints or returns it.
var hostNanos int64

// Advance times itself, but the clock value reaches no output. clean.
func Advance(steps int) int {
	start := time.Now()
	t := 0
	for i := range steps {
		t += i
	}
	hostNanos += time.Since(start).Nanoseconds()
	return t
}

// Last keeps whichever key map iteration visits last and prints it
// after the loop. want.
func Last(m map[string]int) {
	var last string
	for k := range m {
		last = k
	}
	fmt.Println(last)
}

// Item is one map value with a per-element method.
type Item struct{ Done bool }

// Finished is a pure function of its receiver, whatever order callers
// visit receivers in. clean.
func (it Item) Finished() bool { return it.Done }

// CountFinished calls Finished in map order, but only to count. clean.
func CountFinished(m map[string]Item) int {
	n := 0
	for _, it := range m {
		if it.Finished() {
			n++
		}
	}
	return n
}
