package serve_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"piumagcn/internal/serve"
)

// newHitServer returns a handler whose fig3 run (the serve benchmark's
// hot template) is already done, and the body that submits it again.
func newHitServer(b *testing.B) (http.Handler, []byte) {
	s := serve.New(serve.Config{})
	b.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	body := []byte(`{"experiment":"fig3","options":{"max_sim_edges":131072,"seed":7000}}`)
	if w := serveBody(h, body); w.Code != http.StatusOK {
		b.Fatalf("warm-up: %d %s", w.Code, w.Body.String())
	}
	return h, body
}

func serveBody(h http.Handler, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/runs?wait=true", bytes.NewReader(body)))
	return w
}

// BenchmarkServeHit is a replica's cache hit: POST /v1/runs?wait=true
// for a done fig3 run, through Handler(), answered from the cache.
func BenchmarkServeHit(b *testing.B) {
	h, body := newHitServer(b)
	b.ReportAllocs()
	b.SetBytes(int64(serveBody(h, body).Body.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveBody(h, body); w.Code != http.StatusOK {
			b.Fatalf("hit: %d", w.Code)
		}
	}
}

// BenchmarkServeMiss is a replica's cache miss: each POST names a new
// seed, so the fig3 run is queued, executed by a worker, journaled (no
// store here) and encoded once before the response goes out.
func BenchmarkServeMiss(b *testing.B) {
	s := serve.New(serve.Config{})
	b.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	b.ReportAllocs()
	b.SetBytes(int64(serveBody(h, missBody(-1)).Body.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveBody(h, missBody(i)); w.Code != http.StatusOK {
			b.Fatalf("miss: %d %s", w.Code, w.Body.String())
		}
	}
}

func missBody(i int) []byte {
	return fmt.Appendf(nil, `{"experiment":"fig3","options":{"max_sim_edges":131072,"seed":%d}}`, 1_000_000+i)
}
