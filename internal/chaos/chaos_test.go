package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// virtualClock advances only when slept on, so chaos schedules execute
// instantly and every offset is exact.
type virtualClock struct {
	mu      sync.Mutex
	elapsed time.Duration
}

func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Unix(0, 0).Add(c.elapsed)
}

func (c *virtualClock) Sleep(ctx context.Context, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	if d > 0 {
		c.mu.Lock()
		c.elapsed += d
		c.mu.Unlock()
	}
	return true
}

func (c *virtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.elapsed += d
	c.mu.Unlock()
}

// okTransport is a backend that always answers 200 with a fixed body.
type okTransport struct{ calls int }

func (t *okTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.calls++
	return &http.Response{
		Status:     "200 OK",
		StatusCode: http.StatusOK,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  http.Header{"Content-Type": {"text/plain"}},
		Body:    io.NopCloser(strings.NewReader("0123456789")),
		Request: req,
	}, nil
}

func mustParse(t *testing.T, s string) Spec {
	t.Helper()
	spec, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return spec
}

func TestSpecRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"seed=7;fault=latency,target=b0,at=100ms,for=400ms,delay=250ms",
		"fault=blackhole,target=b1,at=1s,for=500ms",
		"seed=3;fault=5xx,target=*,at=0s,for=2s,rate=0.25,code=503;fault=reset,target=b0,at=1.5s,for=200ms",
		"fault=truncate,target=b0,at=0s,for=1s,bytes=4;fault=slow,target=*,at=0s,for=1s,delay=10ms",
	}
	for _, s := range cases {
		spec := mustParse(t, s)
		if got := spec.String(); got != s {
			t.Errorf("round trip: Parse(%q).String() = %q", s, got)
		}
		again := mustParse(t, spec.String())
		if again.String() != spec.String() {
			t.Errorf("re-parse of %q not stable", s)
		}
	}
}

func TestSpecParseErrors(t *testing.T) {
	cases := []string{
		"fault=latency,target=b0,at=0s,for=1s",          // latency without delay
		"fault=warp,target=b0,at=0s,for=1s",             // unknown kind
		"fault=reset,at=0s,for=1s",                      // missing target
		"fault=reset,target=b0,at=0s,for=0s",            // empty window
		"fault=reset,target=b0,at=-1s,for=1s",           // negative at
		"fault=5xx,target=b0,at=0s,for=1s,code=404",     // non-5xx code
		"fault=reset,target=b0,at=0s,for=1s,rate=1.5",   // rate out of range
		"fault=reset,target=b0,at=0s,for=1s,when=later", // unknown key
		"fault=reset,target=b0,at=1ns,for=1s",           // sub-millisecond
		"seed=x;fault=reset,target=b0,at=0s,for=1s",     // bad seed
	}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", s)
		}
	}
}

// roundTrip drives one GET through a chaos transport over base.
func roundTrip(t *testing.T, tr *Transport, host string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, "http://"+host+"/v1/runs", nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr.RoundTrip(req)
}

func newTransport(spec Spec, clock Clock, base http.RoundTripper) *Transport {
	return &Transport{
		Injector: New(spec, clock),
		Base:     base,
		Targets:  map[string]string{"b0.test:80": "b0", "b1.test:80": "b1"},
	}
}

func TestTransportFaultKinds(t *testing.T) {
	t.Run("reset", func(t *testing.T) {
		base := &okTransport{}
		tr := newTransport(mustParse(t, "fault=reset,target=b0,at=0s,for=1s"), &virtualClock{}, base)
		if _, err := roundTrip(t, tr, "b0.test:80"); err == nil || !strings.Contains(err.Error(), "connection reset") {
			t.Fatalf("want reset error, got %v", err)
		}
		if base.calls != 0 {
			t.Fatalf("reset request reached the base transport")
		}
		// The other replica is untouched.
		if _, err := roundTrip(t, tr, "b1.test:80"); err != nil {
			t.Fatalf("b1 request failed: %v", err)
		}
	})

	t.Run("blackhole hangs to window end", func(t *testing.T) {
		clock := &virtualClock{}
		base := &okTransport{}
		tr := newTransport(mustParse(t, "fault=blackhole,target=b0,at=0s,for=2s"), clock, base)
		clock.Advance(500 * time.Millisecond)
		_, err := roundTrip(t, tr, "b0.test:80")
		if err == nil || !strings.Contains(err.Error(), "no route to host") {
			t.Fatalf("want unreachable error, got %v", err)
		}
		if got, want := clock.elapsed, 2*time.Second; got != want {
			t.Fatalf("blackhole released at %v, want window end %v", got, want)
		}
		if base.calls != 0 {
			t.Fatalf("blackholed request reached the base transport")
		}
	})

	t.Run("latency delays then forwards", func(t *testing.T) {
		clock := &virtualClock{}
		base := &okTransport{}
		tr := newTransport(mustParse(t, "fault=latency,target=*,at=0s,for=1s,delay=250ms"), clock, base)
		resp, err := roundTrip(t, tr, "b0.test:80")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got, want := clock.elapsed, 250*time.Millisecond; got != want {
			t.Fatalf("latency advanced clock by %v, want %v", got, want)
		}
		if base.calls != 1 {
			t.Fatalf("base calls = %d, want 1", base.calls)
		}
	})

	t.Run("5xx synthesized without reaching base", func(t *testing.T) {
		base := &okTransport{}
		tr := newTransport(mustParse(t, "fault=5xx,target=b0,at=0s,for=1s,code=503"), &virtualClock{}, base)
		resp, err := roundTrip(t, tr, "b0.test:80")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", resp.StatusCode)
		}
		if base.calls != 0 {
			t.Fatalf("5xx request reached the base transport")
		}
	})

	t.Run("truncate cuts the body", func(t *testing.T) {
		tr := newTransport(mustParse(t, "fault=truncate,target=b0,at=0s,for=1s,bytes=4"), &virtualClock{}, &okTransport{})
		resp, err := roundTrip(t, tr, "b0.test:80")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("read error = %v, want io.ErrUnexpectedEOF", err)
		}
		if string(body) != "0123" {
			t.Fatalf("body = %q, want first 4 bytes", body)
		}
	})

	t.Run("slow delays the response", func(t *testing.T) {
		clock := &virtualClock{}
		tr := newTransport(mustParse(t, "fault=slow,target=b0,at=0s,for=1s,delay=100ms"), clock, &okTransport{})
		resp, err := roundTrip(t, tr, "b0.test:80")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got, want := clock.elapsed, 100*time.Millisecond; got != want {
			t.Fatalf("slow advanced clock by %v, want %v", got, want)
		}
	})

	t.Run("outside window passes through", func(t *testing.T) {
		clock := &virtualClock{}
		base := &okTransport{}
		tr := newTransport(mustParse(t, "fault=reset,target=b0,at=1s,for=1s"), clock, base)
		if _, err := roundTrip(t, tr, "b0.test:80"); err != nil {
			t.Fatalf("pre-window request failed: %v", err)
		}
		clock.Advance(2500 * time.Millisecond)
		if _, err := roundTrip(t, tr, "b0.test:80"); err != nil {
			t.Fatalf("post-window request failed: %v", err)
		}
		if len(tr.Injector.Records()) != 0 {
			t.Fatalf("faults recorded outside the window: %+v", tr.Injector.Records())
		}
	})
}

// TestFaultLogDeterministic is the chaos half of the determinism
// contract: the same (seed, schedule, request stream) under a virtual
// clock produces a byte-identical fault log, including sub-unit rate
// draws.
func TestFaultLogDeterministic(t *testing.T) {
	spec := mustParse(t, "seed=11;fault=5xx,target=*,at=0s,for=10s,rate=0.4,code=502;fault=reset,target=b1,at=2s,for=3s,rate=0.5")
	runOnce := func() []byte {
		clock := &virtualClock{}
		tr := newTransport(spec, clock, &okTransport{})
		for i := 0; i < 40; i++ {
			host := "b0.test:80"
			if i%2 == 1 {
				host = "b1.test:80"
			}
			resp, err := roundTrip(t, tr, host)
			if err == nil {
				resp.Body.Close()
			}
			clock.Advance(200 * time.Millisecond)
		}
		return tr.Injector.LogJSON()
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Fatalf("fault logs differ across identical runs:\n%s\n---\n%s", a, b)
	}
	var probe []Record
	if err := json.Unmarshal(a, &probe); err != nil {
		t.Fatalf("fault log not decodable: %v", err)
	}
	if len(probe) == 0 {
		t.Fatal("chaos schedule injected nothing")
	}
	all := 0
	for _, r := range probe {
		if r.Kind == Kind5xx {
			all++
		}
	}
	// rate=0.4 over 40 in-window requests: the draw must thin the hits.
	if all == 0 || all == 40 {
		t.Fatalf("rate=0.4 window hit %d/40 requests; draw not thinning", all)
	}
}

func TestTargets(t *testing.T) {
	m := Targets([]string{"http://127.0.0.1:8081", " http://127.0.0.1:8082/ ", "not a url"})
	if m["127.0.0.1:8081"] != "b0" || m["127.0.0.1:8082"] != "b1" {
		t.Fatalf("Targets = %v", m)
	}
}

func FuzzParse(f *testing.F) {
	f.Add("seed=7;fault=latency,target=b0,at=1s,for=2s,delay=250ms")
	f.Add("fault=5xx,target=*,at=0s,for=2s,rate=0.25,code=503")
	f.Add("")
	f.Add("fault=blackhole,target=b1,at=4s,for=500ms;fault=reset,target=b0,at=0s,for=1s")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		// Valid specs must round-trip through the canonical encoding.
		again, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", spec.String(), s, err)
		}
		if again.String() != spec.String() {
			t.Fatalf("canonical form not a fixed point: %q -> %q", spec.String(), again.String())
		}
	})
}
