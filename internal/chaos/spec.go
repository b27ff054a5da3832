// Package chaos injects deterministic network-level faults into the
// serving cluster: latency spikes, connection resets, partitions
// (blackholes), truncated bodies, 5xx bursts and slow responses,
// scheduled on a timeline and scoped to named replicas. It is the
// serving-tier twin of internal/faults — that package degrades the
// simulated machine, this one degrades the network between the gate
// and its backends.
//
// A Spec is pure data (a key=value timeline, String/Parse round-trip)
// and an Injector is a Spec bound to a Clock with its epoch pinned: the
// fault a request experiences is a pure function of (seed, schedule,
// request order, virtual time), so a chaos run under an injected clock
// is byte-for-byte reproducible — the same determinism contract the
// rest of the repo holds.
//
// The Injector attaches at one point: Transport wraps an
// http.RoundTripper on the client side (the gate's fan-out transport)
// and logs every injected fault.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Fault kinds. Transport supports all six.
const (
	// KindLatency delays the request by Delay before it is forwarded.
	KindLatency = "latency"
	// KindSlow delays the response by Delay after the backend answered.
	KindSlow = "slow"
	// KindReset fails the request immediately with a connection-reset
	// error, as if the peer sent RST mid-handshake.
	KindReset = "reset"
	// KindBlackhole models a partition: the request hangs until the
	// window closes (or the caller's context expires), then fails as
	// unreachable. No bytes ever reach the target.
	KindBlackhole = "blackhole"
	// Kind5xx synthesizes an HTTP server-error response (Code, default
	// 500) without the request reaching the target.
	Kind5xx = "5xx"
	// KindTruncate forwards the request but cuts the response body
	// after Bytes bytes, surfacing io.ErrUnexpectedEOF to the reader.
	KindTruncate = "truncate"
)

// TargetAll scopes a window to every target.
const TargetAll = "*"

// Window is one scheduled fault: Kind applied to Target during
// [At, At+For), hitting each request with probability Rate (0 means 1 —
// every request in the window).
type Window struct {
	Kind   string `json:"kind"`
	Target string `json:"target"`
	// AtMS/ForMS place the window on the injector timeline (offsets
	// from the injector epoch, milliseconds).
	AtMS  int64 `json:"at_ms"`
	ForMS int64 `json:"for_ms"`
	// DelayMS is the injected delay for latency/slow windows.
	DelayMS int64 `json:"delay_ms,omitempty"`
	// Rate is the per-request hit probability in (0, 1]; 0 means 1.
	// Sub-unit rates draw deterministically from (seed, window,
	// per-window request counter), not from shared rng state.
	Rate float64 `json:"rate,omitempty"`
	// Code is the synthesized status for 5xx windows (default 500).
	Code int `json:"code,omitempty"`
	// Bytes is how much of the response body a truncate window lets
	// through before cutting it.
	Bytes int64 `json:"bytes,omitempty"`
}

// At is the window's opening offset from the injector epoch.
func (w Window) At() time.Duration { return time.Duration(w.AtMS) * time.Millisecond }

// For is the window's duration.
func (w Window) For() time.Duration { return time.Duration(w.ForMS) * time.Millisecond }

// Delay is the injected latency of a latency/slow window.
func (w Window) Delay() time.Duration { return time.Duration(w.DelayMS) * time.Millisecond }

// contains reports whether the offset falls inside [At, At+For).
func (w Window) contains(off time.Duration) bool {
	return off >= w.At() && off < w.At()+w.For()
}

// matches reports whether the window applies to the named target.
func (w Window) matches(target string) bool {
	return w.Target == TargetAll || w.Target == target
}

// rate is the effective hit probability.
func (w Window) rate() float64 {
	if w.Rate == 0 {
		return 1
	}
	return w.Rate
}

// code is the effective synthesized status of a 5xx window.
func (w Window) code() int {
	if w.Code == 0 {
		return 500
	}
	return w.Code
}

// Spec is a full chaos schedule. The zero value injects nothing.
type Spec struct {
	// Seed drives every probabilistic hit decision (Rate < 1 windows).
	Seed int64 `json:"seed,omitempty"`
	// Windows fire in spec order; the first window that hits a request
	// short-circuits for terminal kinds (reset, blackhole, 5xx), while
	// latency/slow/truncate compose with a later terminal window.
	Windows []Window `json:"windows,omitempty"`
}

// windowKeys is the canonical key order of one fault section.
var windowKeys = []string{"fault", "target", "at", "for", "delay", "rate", "code", "bytes"}

// validKinds enumerates the fault vocabulary for error messages.
var validKinds = []string{KindLatency, KindSlow, KindReset, KindBlackhole, Kind5xx, KindTruncate}

// Parse decodes the semicolon-sectioned key=value schedule format used
// on command lines, e.g.
//
//	"seed=7;fault=latency,target=b0,at=1s,for=2s,delay=250ms;fault=blackhole,target=b1,at=4s,for=500ms"
//
// The first section may be a bare seed=N; every other section is one
// fault window introduced by fault=<kind>. Durations use Go syntax
// ("250ms", "1.5s"). An empty string is the zero (inject-nothing)
// Spec. The result is validated so Parse(s.String()) round-trips.
func Parse(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for si, section := range strings.Split(s, ";") {
		section = strings.TrimSpace(section)
		if section == "" {
			continue
		}
		if si == 0 && strings.HasPrefix(section, "seed=") {
			seed, err := strconv.ParseInt(strings.TrimPrefix(section, "seed="), 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("chaos: bad seed: %v", err)
			}
			spec.Seed = seed
			continue
		}
		w, err := parseWindow(section)
		if err != nil {
			return Spec{}, err
		}
		spec.Windows = append(spec.Windows, w)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// parseWindow decodes one comma-separated fault section.
func parseWindow(section string) (Window, error) {
	var w Window
	for _, part := range strings.Split(section, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Window{}, fmt.Errorf("chaos: %q is not key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "fault":
			w.Kind = val
		case "target":
			w.Target = val
		case "at":
			w.AtMS, err = parseMS(val)
		case "for":
			w.ForMS, err = parseMS(val)
		case "delay":
			w.DelayMS, err = parseMS(val)
		case "rate":
			w.Rate, err = strconv.ParseFloat(val, 64)
		case "code":
			w.Code, err = strconv.Atoi(val)
		case "bytes":
			w.Bytes, err = strconv.ParseInt(val, 10, 64)
		default:
			return Window{}, fmt.Errorf("chaos: unknown key %q (valid: %s)", key, strings.Join(windowKeys, ", "))
		}
		if err != nil {
			return Window{}, fmt.Errorf("chaos: bad value for %s: %v", key, err)
		}
	}
	return w, nil
}

// parseMS decodes a Go duration into whole milliseconds.
func parseMS(val string) (int64, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, err
	}
	if d%time.Millisecond != 0 {
		return 0, fmt.Errorf("%s is not a whole number of milliseconds", val)
	}
	return d.Milliseconds(), nil
}

// fmtMS renders whole milliseconds in canonical Go duration syntax.
func fmtMS(ms int64) string {
	return (time.Duration(ms) * time.Millisecond).String()
}

// String renders the canonical encoding: seed first (omitted when
// zero), then each window with keys in fixed order and default-valued
// fields omitted. The empty spec renders as "".
func (s Spec) String() string {
	var sections []string
	if s.Seed != 0 {
		sections = append(sections, "seed="+strconv.FormatInt(s.Seed, 10))
	}
	for _, w := range s.Windows {
		parts := []string{"fault=" + w.Kind, "target=" + w.Target,
			"at=" + fmtMS(w.AtMS), "for=" + fmtMS(w.ForMS)}
		if w.DelayMS != 0 {
			parts = append(parts, "delay="+fmtMS(w.DelayMS))
		}
		if w.Rate != 0 && w.Rate != 1 {
			parts = append(parts, "rate="+strconv.FormatFloat(w.Rate, 'g', -1, 64))
		}
		if w.Code != 0 {
			parts = append(parts, "code="+strconv.Itoa(w.Code))
		}
		if w.Bytes != 0 {
			parts = append(parts, "bytes="+strconv.FormatInt(w.Bytes, 10))
		}
		sections = append(sections, strings.Join(parts, ","))
	}
	return strings.Join(sections, ";")
}

// Validate rejects schedules outside the model's domain.
func (s Spec) Validate() error {
	for i, w := range s.Windows {
		prefix := fmt.Sprintf("chaos: window %d", i)
		switch w.Kind {
		case KindLatency, KindSlow:
			if w.DelayMS <= 0 {
				return fmt.Errorf("%s: %s needs delay > 0", prefix, w.Kind)
			}
		case KindReset, KindBlackhole, KindTruncate:
		case Kind5xx:
			if w.Code != 0 && (w.Code < 500 || w.Code > 599) {
				return fmt.Errorf("%s: code %d is not a 5xx status", prefix, w.Code)
			}
		case "":
			return fmt.Errorf("%s: missing fault=<kind> (valid: %s)", prefix, strings.Join(validKinds, ", "))
		default:
			return fmt.Errorf("%s: unknown fault %q (valid: %s)", prefix, w.Kind, strings.Join(validKinds, ", "))
		}
		switch {
		case w.Target == "":
			return fmt.Errorf("%s: missing target (replica name or %q)", prefix, TargetAll)
		case w.AtMS < 0:
			return fmt.Errorf("%s: at must be >= 0", prefix)
		case w.ForMS <= 0:
			return fmt.Errorf("%s: for must be > 0", prefix)
		case w.DelayMS < 0:
			return fmt.Errorf("%s: delay must be >= 0", prefix)
		case w.Rate < 0 || w.Rate > 1:
			return fmt.Errorf("%s: rate must be in [0, 1]", prefix)
		case w.Bytes < 0:
			return fmt.Errorf("%s: bytes must be >= 0", prefix)
		}
	}
	return nil
}
