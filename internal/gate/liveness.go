package gate

import (
	"math/rand"
	"time"
)

// Breaker states: the serving half of a replica's liveness record. A
// replica can answer probes perfectly while burning every submission
// with 5xx, and the circuit is what routes around that.
const (
	// BreakerClosed admits traffic normally.
	BreakerClosed = "closed"
	// BreakerOpen refuses the backend outright until the cooldown
	// elapses.
	BreakerOpen = "open"
	// BreakerHalfOpen admits exactly one trial submission; its outcome
	// closes or re-opens the circuit.
	BreakerHalfOpen = "half-open"
)

// BreakerTransition records one circuit state change. The transition
// sequence is part of the gate's determinism contract: under an
// injected clock and a sequential request stream, identical runs
// produce identical transition logs. Backend and To are closed
// vocabularies (replica names and the three state constants), which is
// why the metriclabels analyzer sanctions both as metric label values.
type BreakerTransition struct {
	// Seq numbers transitions in occurrence order (gate-wide).
	Seq uint64 `json:"seq"`
	// Backend is the replica whose circuit moved.
	Backend string `json:"backend"`
	// From and To are the breaker states on either side of the move.
	From string `json:"from"`
	To   string `json:"to"`
}

// maxBackoff caps the shared backoff schedule.
const maxBackoff = 30 * time.Second

// outcome is one piece of evidence about a replica, applied by
// Registry.observe.
type outcome uint8

const (
	probeOK        outcome = iota // /healthz answered 200
	probeFailed                   // /healthz failed, timed out or answered non-200
	claim                         // a submission asks the circuit for admission
	submitOK                      // a claimed submission was answered below 500
	submit5xx                     // a claimed submission was answered 5xx
	noVerdict                     // a claimed submission ended without judging the replica
	transportError                // a forwarded request died on the wire
)

// liveness is one replica's health record, guarded by Replica.mu and
// written only by Registry.observe. It keeps two verdicts:
//
//   - reachable: is the process there at all. MarkDownAfter
//     consecutive failed probes demote it; a transport error demotes
//     it at once. Only a passing probe or a submission answered below
//     500 promotes it.
//   - serving: the circuit. BreakerThreshold consecutive 5xx
//     submissions open it; once the cooldown passes, one trial
//     submission runs half-open and its outcome closes or re-opens it.
//
// One seeded RNG and one jittered exponential schedule (backoff) time
// both the next probe and an open circuit's cooldown.
type liveness struct {
	reachable  bool
	probeFails int       // consecutive failed probes and transport errors
	nextProbe  time.Time // the prober skips the replica until then

	circuit    string    // BreakerClosed, BreakerOpen or BreakerHalfOpen
	serveFails int       // consecutive 5xx submissions
	openUntil  time.Time // open → half-open not before this instant
	trial      bool      // the half-open trial slot is taken

	rng *rand.Rand
}

// admits reports whether the circuit would take a submission at now:
// closed always, open once the cooldown has passed, half-open while the
// trial slot is free.
func (l *liveness) admits(now time.Time) bool {
	switch l.circuit {
	case BreakerOpen:
		return !now.Before(l.openUntil)
	case BreakerHalfOpen:
		return !l.trial
	}
	return true
}

// observe applies one outcome to r's liveness record, then publishes
// what moved: the health gauge and counters, and any circuit
// transition to the metrics and the OnBreaker hook. It reports whether
// a claim was granted (a half-open circuit hands out its one trial
// slot); every other outcome reports true.
func (reg *Registry) observe(r *Replica, o outcome) bool {
	now := reg.clock.Now()
	granted := true
	r.mu.Lock()
	l := &r.live
	wasUp, from := l.reachable, l.circuit
	switch o {
	case probeOK:
		l.reachable, l.probeFails, l.nextProbe = true, 0, time.Time{}
	case probeFailed, transportError:
		l.probeFails++
		l.nextProbe = now.Add(reg.backoff(l, l.probeFails))
		if l.probeFails >= reg.markDownAfter {
			l.reachable = false
		}
		if o == transportError {
			l.reachable, l.trial = false, false
		}
	case claim:
		granted = l.admits(now)
		if granted && l.circuit != BreakerClosed {
			l.circuit, l.trial = BreakerHalfOpen, true
		}
	case submitOK:
		l.reachable, l.circuit, l.serveFails, l.trial = true, BreakerClosed, 0, false
	case submit5xx:
		l.serveFails++
		if l.circuit == BreakerHalfOpen || (l.circuit == BreakerClosed && l.serveFails >= reg.breakerThreshold) {
			l.circuit = BreakerOpen
			l.openUntil = now.Add(reg.backoff(l, l.serveFails))
		}
		l.trial = false
	case noVerdict:
		l.trial = false
	}
	isUp, to := l.reachable, l.circuit
	r.mu.Unlock()

	if isUp != wasUp {
		if isUp {
			reg.metrics.setBackendHealthy(r.Name, 1)
			reg.metrics.incRecovered(r.Name)
		} else {
			reg.metrics.setBackendHealthy(r.Name, 0)
		}
	}
	if o == probeFailed || o == transportError {
		reg.metrics.incProbeFailure(r.Name)
	}
	if to != from {
		t := BreakerTransition{Seq: reg.btSeq.Add(1) - 1, Backend: r.Name, From: from, To: to}
		reg.metrics.observeBreakerTransition(t)
		if reg.onBreaker != nil {
			reg.onBreaker(t)
		}
	}
	return granted
}

// backoff is the delay after n consecutive failures: the probe interval
// doubled for each failure past the first (at most six times), capped
// at maxBackoff, with seeded jitter on the upper half (mirroring
// serve's retry backoff) so replicas failing together are not retried
// in lockstep.
func (reg *Registry) backoff(l *liveness, n int) time.Duration {
	d := min(reg.interval<<min(max(n-1, 0), 6), maxBackoff)
	return d/2 + time.Duration(l.rng.Int63n(int64(d/2)+1))
}
