package gate

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestBucketRefill(t *testing.T) {
	b := newBucket(2, 2) // 2 tokens/s, burst 2
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("burst token %d should admit", i)
		}
	}
	ok, wait := b.take(now)
	if ok {
		t.Fatal("empty bucket should reject")
	}
	if wait != 500*time.Millisecond {
		t.Fatalf("want 500ms until the next token at 2/s, got %v", wait)
	}
	// Half a second refills exactly one token.
	now = now.Add(500 * time.Millisecond)
	if ok, _ := b.take(now); !ok {
		t.Fatal("refilled token should admit")
	}
	if ok, _ := b.take(now); ok {
		t.Fatal("second take at the same instant should reject")
	}
}

func TestNormalizeClass(t *testing.T) {
	cases := map[string]string{
		"gold": "gold", "silver": "silver", "bronze": "bronze",
		"batch": "batch", "": "none", "platinum": "other", "GOLD": "other",
	}
	for in, want := range cases {
		if got := normalizeClass(in); got != want {
			t.Errorf("normalizeClass(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestUnknownQuotaClassRejected(t *testing.T) {
	_, err := New(Config{
		Backends:    []string{"http://127.0.0.1:1"},
		ClassQuotas: map[string]float64{"platinum": 5},
	})
	if err == nil || !strings.Contains(err.Error(), "platinum") {
		t.Fatalf("want quota-class validation error, got %v", err)
	}
}

// TestQuotaClassErrorDeterministic: with several invalid quota classes,
// New names the one that sorts first, every time, rather than whichever
// one map iteration reaches first.
func TestQuotaClassErrorDeterministic(t *testing.T) {
	cfg := Config{
		Backends:    []string{"http://127.0.0.1:1"},
		ClassQuotas: map[string]float64{"platinum": 5, "gold": 1, "diamond": 2},
	}
	for i := 0; i < 64; i++ {
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), `"diamond"`) {
			t.Fatalf("call %d: want the error to name \"diamond\", got %v", i, err)
		}
	}
}

// TestAdmissionRateLimit drives the global token bucket over HTTP: the
// burst admits, the next request gets 429 + Retry-After, and advancing
// the virtual clock readmits — all without any backend being touched
// for rejected requests.
func TestAdmissionRateLimit(t *testing.T) {
	backend := fakeBackend(t)
	clock := newFixedClock()
	g := mustGate(t, Config{
		Backends:      []string{backend.URL},
		Rate:          2,
		Burst:         2,
		ProbeInterval: -1,
		Clock:         clock,
	})
	h := g.Handler()
	post := func(seed int, class string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(submitBody(seed)))
		if class != "" {
			req.Header.Set("X-SLO-Class", class)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	for i := 0; i < 2; i++ {
		if rec := post(i, ""); rec.Code != http.StatusOK {
			t.Fatalf("burst submit %d: status %d", i, rec.Code)
		}
	}
	rec := post(2, "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: want 429, got %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("want Retry-After 1 (500ms rounded up), got %q", got)
	}
	clock.Advance(time.Second)
	if rec := post(3, ""); rec.Code != http.StatusOK {
		t.Fatalf("post-refill submit: status %d", rec.Code)
	}
}

// TestClassQuota: a per-class quota rejects only that class; others
// ride the global (here unlimited) budget. A rejected class request
// names its scope in the error and the rejection metric.
func TestClassQuota(t *testing.T) {
	backend := fakeBackend(t)
	g := mustGate(t, Config{
		Backends:      []string{backend.URL},
		ClassQuotas:   map[string]float64{"gold": 1},
		Burst:         1,
		ProbeInterval: -1,
		Clock:         newFixedClock(),
	})
	h := g.Handler()
	post := func(seed int, class string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(submitBody(seed)))
		req.Header.Set("X-SLO-Class", class)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := post(0, "gold"); rec.Code != http.StatusOK {
		t.Fatalf("first gold: status %d", rec.Code)
	}
	rec := post(1, "gold")
	if rec.Code != http.StatusTooManyRequests || !strings.Contains(rec.Body.String(), "gold") {
		t.Fatalf("second gold should hit the quota: %d %s", rec.Code, rec.Body.String())
	}
	// Silver has no quota and no global rate: always admitted.
	for i := 0; i < 3; i++ {
		if rec := post(10+i, "silver"); rec.Code != http.StatusOK {
			t.Fatalf("silver %d: status %d", i, rec.Code)
		}
	}
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), `piumagate_admission_rejected_total{scope="gold"} 1`) {
		t.Errorf("metrics missing gold-scope rejection:\n%s", mrec.Body.String())
	}
}

func TestSubmitValidation(t *testing.T) {
	g := mustGate(t, Config{
		Backends:      []string{fakeBackend(t).URL},
		ProbeInterval: -1,
		Clock:         newFixedClock(),
	})
	h := g.Handler()
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"options":{}}`, http.StatusBadRequest},                 // missing experiment
		{`not json`, http.StatusBadRequest},                       // malformed
		{`{"experiment":"table1"}`, http.StatusOK},                // defaults fill options
		{`{"experiment":"table1","options":null}`, http.StatusOK}, // explicit null
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("body %q: want %d, got %d (%s)", tc.body, tc.want, rec.Code, rec.Body.String())
		}
	}
}
