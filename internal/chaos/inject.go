package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Clock abstracts time for the injector: Now places requests on the
// schedule timeline, Sleep realizes injected delays. Tests drive a
// virtual clock so chaos schedules execute instantly and
// deterministically.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d, returning false if ctx expired first.
	Sleep(ctx context.Context, d time.Duration) bool
}

// WallClock is the default real-time Clock.
type WallClock struct{}

func (WallClock) Now() time.Time { return time.Now() }

func (WallClock) Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Injected fault errors. The http.Client wraps them in *url.Error like
// any transport failure, so resilient callers (gate failover,
// serve.Client retries) treat them exactly like the real thing.
var (
	// ErrReset models a TCP RST: the request fails immediately.
	ErrReset = errors.New("chaos: connection reset by peer")
	// ErrUnreachable models a partition: the request hung for the
	// remainder of the blackhole window and no byte ever arrived.
	ErrUnreachable = errors.New("chaos: no route to host (partition)")
)

// Record is one injected fault, as logged. Under an injected clock and
// a sequential request stream the record sequence is byte-identical
// across runs — the chaos half of the determinism contract.
type Record struct {
	// Seq numbers injected faults in injection order.
	Seq uint64 `json:"seq"`
	// OffsetUS is the fault's position on the schedule timeline.
	OffsetUS int64 `json:"offset_us"`
	// Target is the replica the faulted request addressed.
	Target string `json:"target"`
	// Kind is the injected fault kind.
	Kind string `json:"kind"`
	// Window indexes the spec window that fired.
	Window int `json:"window"`
}

// Injector binds a Spec to a Clock with the epoch pinned at
// construction. One Injector may back any number of Transports; they
// share the timeline, the seed and the fault log.
type Injector struct {
	spec  Spec
	clock Clock
	epoch time.Time

	mu    sync.Mutex
	seq   uint64
	draws map[int]uint64 // per-window hit-decision counters
	log   []Record
}

// New pins the schedule epoch at clock.Now(). A nil clock uses wall
// time.
func New(spec Spec, clock Clock) *Injector {
	if clock == nil {
		clock = WallClock{}
	}
	return &Injector{
		spec:  spec,
		clock: clock,
		epoch: clock.Now(),
		draws: make(map[int]uint64),
	}
}

// Spec returns the injector's schedule.
func (inj *Injector) Spec() Spec { return inj.spec }

// offset is the current position on the schedule timeline.
func (inj *Injector) offset() time.Duration {
	return inj.clock.Now().Sub(inj.epoch)
}

// Records snapshots the fault log in injection order.
func (inj *Injector) Records() []Record {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]Record, len(inj.log))
	copy(out, inj.log)
	return out
}

// LogJSON renders the fault log as canonical indented JSON (the
// byte-identity artifact determinism tests compare).
func (inj *Injector) LogJSON() []byte {
	b, err := json.MarshalIndent(inj.Records(), "", "  ")
	if err != nil {
		panic(fmt.Sprintf("chaos: fault log not JSON-encodable: %v", err))
	}
	return b
}

// hit decides whether window wi fires for one request at the given
// offset, recording the fault if so. Sub-unit rates hash (seed, window,
// per-window draw counter) so the decision stream is a pure function of
// request order — no shared rng state to race on.
func (inj *Injector) hit(wi int, target string, off time.Duration) bool {
	w := inj.spec.Windows[wi]
	inj.mu.Lock()
	if rate := w.rate(); rate < 1 {
		n := inj.draws[wi]
		inj.draws[wi] = n + 1
		if float64(drawHash(inj.spec.Seed, wi, n)%1_000_000) >= rate*1_000_000 {
			inj.mu.Unlock()
			return false
		}
	}
	inj.log = append(inj.log, Record{
		Seq:      inj.seq,
		OffsetUS: off.Microseconds(),
		Target:   target,
		Kind:     w.Kind,
		Window:   wi,
	})
	inj.seq++
	inj.mu.Unlock()
	return true
}

// drawHash is the deterministic per-request hit draw.
func drawHash(seed int64, window int, n uint64) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	putU64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	putU64(0, uint64(seed))
	putU64(8, uint64(window))
	putU64(16, n)
	h.Write(buf[:])
	return h.Sum64()
}

// Targets maps URL hosts onto replica names using the gate's
// index-assigned convention ("b0", "b1", ... in backend list order), so
// a Transport wrapped around the gate's fan-out client can tell which
// replica a request addresses.
func Targets(backends []string) map[string]string {
	m := make(map[string]string, len(backends))
	for i, b := range backends {
		u, err := url.Parse(strings.TrimSpace(b))
		if err != nil || u.Host == "" {
			continue
		}
		m[u.Host] = "b" + strconv.Itoa(i)
	}
	return m
}

// Transport is the client-side attachment: an http.RoundTripper that
// consults the schedule before (and after) delegating to Base. Requests
// whose host is not in Targets pass through untouched.
type Transport struct {
	Injector *Injector
	// Base is the wrapped transport (nil = http.DefaultTransport).
	Base http.RoundTripper
	// Targets maps request hosts onto replica names (see Targets).
	Targets map[string]string
}

// WrapClient replaces c.Transport with a chaos Transport over the
// original (shallow-copying the client, so the caller's is untouched).
func WrapClient(c *http.Client, inj *Injector, targets map[string]string) *http.Client {
	if c == nil {
		c = &http.Client{}
	}
	wrapped := *c
	wrapped.Transport = &Transport{Injector: inj, Base: c.Transport, Targets: targets}
	return &wrapped
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// RoundTrip applies every window active for the request's target at the
// current schedule offset, in spec order. Terminal kinds (reset,
// blackhole, 5xx) short-circuit; latency delays the request,
// slow/truncate shape the response of the eventual base round trip.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	inj := t.Injector
	target, ok := t.Targets[req.URL.Host]
	if !ok || inj == nil {
		return t.base().RoundTrip(req)
	}
	off := inj.offset()
	ctx := req.Context()
	var slowBy time.Duration
	truncateAt := int64(-1)
	for wi, w := range inj.spec.Windows {
		if !w.contains(off) || !w.matches(target) || !inj.hit(wi, target, off) {
			continue
		}
		switch w.Kind {
		case KindLatency:
			if !inj.clock.Sleep(ctx, w.Delay()) {
				return nil, fmt.Errorf("chaos: %s: latency injection interrupted: %w", target, ctx.Err())
			}
		case KindReset:
			return nil, fmt.Errorf("chaos: %s: %w", target, ErrReset)
		case KindBlackhole:
			// A partitioned peer neither answers nor refuses: hang until
			// the window closes (or the caller gives up), then fail.
			if remain := w.At() + w.For() - off; remain > 0 {
				inj.clock.Sleep(ctx, remain)
			}
			return nil, fmt.Errorf("chaos: %s: %w", target, ErrUnreachable)
		case Kind5xx:
			return synthesize(req, w.code()), nil
		case KindSlow:
			slowBy += w.Delay()
		case KindTruncate:
			if truncateAt < 0 || w.Bytes < truncateAt {
				truncateAt = w.Bytes
			}
		}
	}
	resp, err := t.base().RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if slowBy > 0 && !inj.clock.Sleep(ctx, slowBy) {
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: %s: slow-response injection interrupted: %w", target, ctx.Err())
	}
	if truncateAt >= 0 {
		resp.Body = &truncatedBody{rc: resp.Body, remain: truncateAt}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}

// synthesize builds an injected 5xx response that never touched the
// network.
func synthesize(req *http.Request, code int) *http.Response {
	body := fmt.Sprintf("chaos: injected %d %s\n", code, http.StatusText(code))
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"text/plain; charset=utf-8"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncatedBody lets remain bytes through, then fails the read the way
// a connection cut mid-body does.
type truncatedBody struct {
	rc     io.ReadCloser
	remain int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.rc.Read(p)
	b.remain -= int64(n)
	if err == nil && b.remain <= 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }
