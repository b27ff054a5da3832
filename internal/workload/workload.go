// Package workload is the serving tier's traffic engine: a load
// generator that drives internal/serve (live over HTTP or as an
// in-process handler) with seeded, deterministic arrival processes or
// closed worker populations and multi-tenant client mixes, records every issued request and response
// to a replayable trace, and reduces the outcome to a structured report
// — per-SLO-class latency percentiles, achieved vs offered throughput,
// error/backpressure accounting and a Jain fairness index across
// tenants.
//
// The moving parts:
//
//	Scenario  — pure data: arrival process, rate, diurnal curve, tenant
//	            mix. Encodes as key=value (command lines) and JSON
//	            (artifacts), mirroring internal/faults.Spec.
//	Arrivals  — seeded renewal process (Poisson, Gamma, Weibull
//	            inter-arrivals) pushed through the inverse cumulative
//	            rate of the diurnal curve: identical seeds produce
//	            identical request schedules, always.
//	Engine    — one driver for open, closed and replay runs. Open
//	            loop issues requests at their scheduled offsets however
//	            many are still in flight (a slow server does not slow
//	            the workload down, it piles up); closed loop runs a fixed
//	            worker population with think time; replay re-issues a
//	            trace's schedule. All three share one issue/settle/report
//	            path, and each request carries its tenant's SLO class.
//	            The outcomes are read from the Report and the trace; the
//	            engine keeps no live metric registry of its own.
//	Trace     — record/replay on internal/store's length-prefixed
//	            CRC32C framing. Replaying a trace re-issues the recorded
//	            request payloads byte for byte.
//	Report    — the run reduced to numbers: p50/p95/p99 per SLO class,
//	            SLO attainment, throughput, fairness.
package workload

// SLO classes are a fixed vocabulary, not free-form strings: metric
// label cardinality stays bounded (piumalint's metriclabels analyzer
// enforces this at every obs With site) and reports have a stable row
// order. Each class carries a default latency target; tenants may
// override it per scenario.
const (
	// ClassGold is interactive traffic with the tightest latency target.
	ClassGold = "gold"
	// ClassSilver is standard interactive traffic.
	ClassSilver = "silver"
	// ClassBronze is latency-tolerant traffic.
	ClassBronze = "bronze"
	// ClassBatch is throughput-oriented background traffic.
	ClassBatch = "batch"
)

// Classes enumerates the SLO classes in report order.
var Classes = []string{ClassGold, ClassSilver, ClassBronze, ClassBatch}

// ValidClass reports whether c is in the fixed vocabulary.
func ValidClass(c string) bool {
	for _, k := range Classes {
		if c == k {
			return true
		}
	}
	return false
}
