package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"piumagcn/internal/bench"
)

// RunResource is the wire shape of one run. It is the body of every
// /v1/runs response and, via EncodeReport, the -json output of
// cmd/piumabench — one serializer for both surfaces. Handlers never
// encode Report reflectively: encodeRunResource splices a run's stored
// report bytes in after the other fields.
type RunResource struct {
	ID          string        `json:"id"`
	Experiment  string        `json:"experiment"`
	Options     bench.Options `json:"options"`
	Status      Status        `json:"status"`
	Cached      bool          `json:"cached,omitempty"`
	Hits        int64         `json:"hits,omitempty"`
	SubmittedAt *time.Time    `json:"submitted_at,omitempty"`
	ElapsedMS   int64         `json:"elapsed_ms,omitempty"`
	// CheckpointPoints is how many sweep points the run has completed
	// (journal-recovered points included); ReusedPoints is how many a
	// resumed execution skipped re-simulating.
	CheckpointPoints int    `json:"checkpoint_points,omitempty"`
	ReusedPoints     int    `json:"reused_points,omitempty"`
	Error            string `json:"error,omitempty"`
	// Report must stay the last field: encodeRunResource encodes the
	// fields above and splices the stored report in as the final member.
	Report *bench.Report `json:"report,omitempty"`
}

// ExperimentResource is one entry of the /v1/experiments listing.
type ExperimentResource struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	Description string `json:"description"`
}

// resourceFromView builds the head of a run resource: every field but
// Report, whose stored bytes travel separately in v.ReportJSON.
// elapsed_ms is the run's execution time on clock: up to its finish, or
// up to now while it runs (zero before it starts).
func resourceFromView(v RunView, cached bool, clock Clock) RunResource {
	res := RunResource{
		ID:         v.ID,
		Experiment: v.Experiment,
		Options:    v.Options,
		Status:     v.Status,
		Cached:     cached,
		Hits:       v.Hits,

		CheckpointPoints: v.CheckpointPoints,
		ReusedPoints:     v.ReusedPoints,

		Error: v.Err,
	}
	if !v.Started.IsZero() {
		end := v.Finished
		if end.IsZero() {
			end = clock.Now()
		}
		res.ElapsedMS = end.Sub(v.Started).Milliseconds()
	}
	if !v.Submitted.IsZero() {
		t := v.Submitted
		res.SubmittedAt = &t
	}
	return res
}

// encodeReport renders rep in the two forms it leaves the service in:
// compact, as the journal stores it, and stored, as the "report" member
// of a run resource carries it (indented two spaces, nested one level
// deep). The encoder escapes HTML and replaces invalid UTF-8 exactly as
// a reflective encode of the whole resource would, so splicing stored
// in keeps responses byte-identical. A nil rep yields nil forms.
func encodeReport(rep *bench.Report) (compact, stored []byte, err error) {
	if rep == nil {
		return nil, nil, nil
	}
	if compact, err = json.Marshal(rep); err != nil {
		return nil, nil, err
	}
	return compact, indentReport(compact), nil
}

// indentReport turns a compact (or journaled) report into its stored
// form. src must be valid JSON.
func indentReport(src []byte) []byte {
	var b bytes.Buffer
	_ = json.Indent(&b, src, "  ", "  ") // src is valid JSON
	// Indent reserves twice len(src); a cached run keeps only what it
	// uses.
	return bytes.Clone(b.Bytes())
}

// encodeRunResource encodes one run resource: head (whose Report must
// be nil) through the reflective encoder, then the stored report bytes,
// when there are any, as the last member. The result is what encodeJSON
// produces for head with its Report set.
func encodeRunResource(head RunResource, stored []byte) ([]byte, error) {
	var b bytes.Buffer
	b.Grow(len(stored) + 512)
	if err := encodeJSON(&b, head); err != nil {
		return nil, err
	}
	out := b.Bytes()
	if len(stored) == 0 {
		return out, nil
	}
	// The encoder ends an object of at least one member (id is never
	// omitted) with "\n}\n".
	out = append(out[:len(out)-len("\n}\n")], ",\n  \"report\": "...)
	out = append(out, stored...)
	return append(out, "\n}\n"...), nil
}

// EncodeReport writes the run resource of a done run of rep's
// experiment under options o: its id, experiment, options, status and
// report members are byte-identical to GET /v1/runs/{id} for the same
// experiment and options, through the same writer. Only the lifecycle
// fields differ: elapsed_ms is the caller's, and the service's
// submitted_at, hits and checkpoint counters are absent.
func EncodeReport(w io.Writer, rep *bench.Report, o bench.Options, elapsed time.Duration) error {
	_, stored, err := encodeReport(rep)
	if err != nil {
		return err
	}
	body, err := encodeRunResource(RunResource{
		ID:         RunID(rep.ID, o),
		Experiment: rep.ID,
		Options:    o,
		Status:     StatusDone,
		ElapsedMS:  elapsed.Milliseconds(),
	}, stored)
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	var b bytes.Buffer
	err := encodeJSON(&b, v)
	writeBody(w, status, b.Bytes(), err)
}

// writeRun answers with one run resource: v's head plus its stored
// report, if it has one. It is the only writer of run resources.
func (s *Server) writeRun(w http.ResponseWriter, status int, v RunView, cached bool) {
	body, err := encodeRunResource(resourceFromView(v, cached, s.clock), v.ReportJSON)
	writeBody(w, status, body, err)
}

// writeBody sends a JSON body encoded before any header went out, with
// its Content-Length. A body that failed to encode (err) becomes a 500
// with a JSON error body, which always encodes, not a truncated 200.
func writeBody(w http.ResponseWriter, status int, body []byte, err error) {
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // the client may be gone; nothing is left to report to
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}
