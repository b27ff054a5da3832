package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"piumagcn/internal/bench"
	"piumagcn/internal/serve"
)

// TestEncodeReportMatchesGet: piumabench -json (EncodeReport) and GET
// /v1/runs/{id} go through one writer, so for the same experiment and
// options the report member — and the id, experiment, options and
// status members — are byte-identical. Only the lifecycle fields differ.
func TestEncodeReportMatchesGet(t *testing.T) {
	o := bench.Options{MaxSimEdges: 1 << 17, Seed: 7}
	e, err := bench.ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := serve.EncodeReport(&cli, rep, o, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, serve.Config{})
	h := s.Handler()
	body := fmt.Sprintf(`{"experiment":"fig3","options":{"max_sim_edges":%d,"seed":%d}}`, o.MaxSimEdges, o.Seed)
	if w := doJSON(t, h, "POST", "/v1/runs?wait=true", body); w.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	got := doJSON(t, h, "GET", "/v1/runs/"+serve.RunID("fig3", o), "")

	members := func(raw []byte) map[string]json.RawMessage {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
		return m
	}
	cm, gm := members(cli.Bytes()), members(got.Body.Bytes())
	for _, k := range []string{"id", "experiment", "options", "status", "report"} {
		if len(cm[k]) == 0 || !bytes.Equal(cm[k], gm[k]) {
			t.Errorf("member %q differs\n--- EncodeReport ---\n%s\n--- GET ---\n%s", k, cm[k], gm[k])
		}
	}
	if string(cm["elapsed_ms"]) != "1500" {
		t.Errorf("EncodeReport elapsed_ms = %s, want 1500", cm["elapsed_ms"])
	}
	if _, ok := gm["submitted_at"]; !ok {
		t.Error("GET lacks submitted_at")
	}
}
