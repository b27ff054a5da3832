package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"

	"piumagcn/internal/serve"
)

// The anti-entropy reconciler closes the gap failover cannot: a
// mid-flight death only triggers resubmission while a client is still
// attached, and a run whose replica dies *after* acceptance — client
// long gone — would otherwise be lost forever. Each sweep diffs the
// intake ledger's non-terminal runs against what the live replicas
// actually hold (GET /v1/runs) and acts per run:
//
//	terminal — a replica reports the run done/failed/timed-out (or
//	           every copy is canceled): record the status in the
//	           ledger; compaction drops the run.
//	keep     — a live replica still owns the run; nothing to do.
//	rehome   — no live replica knows the run (its owner died for
//	           good): resubmit the journaled (experiment, options) to
//	           the run's home among the reachable replicas.
//
// Re-homing is safe for the same reason failover is: the RunID is a
// content address and replicas deduplicate, so the worst case is a
// cache hit, never a duplicate simulation. Decisions are made in
// admission order over replicas in registration order, so a sweep is
// a pure function of (ledger, replica responses) — the determinism
// contract the OnReconcile log asserts.

// Reconcile actions — ReconcileDecision.Action's closed vocabulary
// (sanctioned as a metric label in the metriclabels analyzer).
const (
	ReconcileTerminal = "terminal"
	ReconcileKeep     = "keep"
	ReconcileRehome   = "rehome"
)

// ReconcileDecision records one reconciler verdict about one run.
type ReconcileDecision struct {
	// Seq numbers decisions in emission order (gate-wide).
	Seq uint64 `json:"seq"`
	// RunID is the run decided about.
	RunID string `json:"run_id"`
	// Action is one of the Reconcile* constants.
	Action string `json:"action"`
	// Backend is where the run lives after the decision (the observing
	// replica for terminal, the owner for keep, the new home for
	// rehome).
	Backend string `json:"backend,omitempty"`
	// Status is the terminal status recorded (terminal action only).
	Status string `json:"status,omitempty"`
}

// decide publishes one reconcile decision to the metrics and the
// OnReconcile hook, in emission order.
func (g *Gate) decide(runID, action, backend, status string) {
	d := ReconcileDecision{Seq: g.rcSeq.Add(1) - 1, RunID: runID, Action: action, Backend: backend, Status: status}
	g.metrics.observeReconcile(d)
	if g.cfg.OnReconcile != nil {
		g.cfg.OnReconcile(d)
	}
}

// ReconcileOnce runs one anti-entropy sweep. The background loop calls
// it on its ticker; tests call it directly for deterministic
// reconciliation. It reports how many runs were re-homed (the
// mutation count) so callers can loop until quiescence.
func (g *Gate) ReconcileOnce(ctx context.Context) int {
	if g.ledger == nil {
		return 0
	}
	g.metrics.incReconcileSweep()
	open := g.ledger.NonTerminal()
	g.metrics.setLedgerOpen(float64(len(open)))
	if len(open) == 0 {
		return 0
	}

	// Enumerate what each healthy replica actually holds. A replica
	// whose listing fails is treated as absent this sweep: its runs
	// look orphaned, and re-homing them elsewhere is harmless (content
	// addresses deduplicate) while leaving them lost would not be.
	healthy := g.reg.Healthy()
	reachable := make([]*Replica, 0, len(healthy))
	owned := make(map[string]map[string]string, len(healthy)) // replica → run → status
	for _, rep := range healthy {
		statuses, err := g.fetchRuns(ctx, rep)
		if err != nil {
			g.metrics.incReconcileFetchError()
			continue
		}
		reachable = append(reachable, rep)
		owned[rep.Name] = statuses
	}
	if len(reachable) == 0 {
		return 0
	}

	mutations := 0
	for _, run := range open {
		if ctx.Err() != nil {
			return mutations
		}
		if g.reconcileRun(ctx, reachable, owned, run.RunID, run.Experiment, run.Options) {
			mutations++
		}
	}
	g.metrics.setLedgerOpen(float64(g.ledger.NonTerminalLen()))
	return mutations
}

// reconcileRun decides one run; reports whether it re-homed it.
// reachable is non-empty.
func (g *Gate) reconcileRun(ctx context.Context, reachable []*Replica, owned map[string]map[string]string, runID, experiment string, options json.RawMessage) bool {
	// Collect the run's copies in registration order.
	var liveRep *Replica // first replica holding a non-terminal copy
	canceledRep := ""
	for _, rep := range reachable {
		status, ok := owned[rep.Name][runID]
		if !ok {
			continue
		}
		switch serve.Status(status) {
		case serve.StatusDone, serve.StatusFailed, serve.StatusTimeout:
			// A hard terminal status anywhere settles the run: done wins
			// outright, and failed/timeout mean the run itself (not its
			// host) gave up — re-homing would just fail again.
			g.recordTerminal(runID, status, rep.Name)
			return false
		case serve.StatusCanceled:
			canceledRep = rep.Name
		default:
			if liveRep == nil {
				liveRep = rep
			}
		}
	}
	if liveRep != nil {
		g.decide(runID, ReconcileKeep, liveRep.Name, "")
		return false
	}
	if canceledRep != "" {
		// Every copy that exists is canceled and nothing is live: the
		// cancellation is the run's real terminal state.
		g.recordTerminal(runID, string(serve.StatusCanceled), canceledRep)
		return false
	}
	// Orphan: no live replica knows the run. Re-home it where
	// submissions of the same content address now land.
	rep := home(runID, reachable)
	if !g.resubmit(ctx, rep, experiment, options) {
		g.metrics.incRehomeFailure()
		return false
	}
	g.ledgerRouted(runID, rep.Name)
	g.decide(runID, ReconcileRehome, rep.Name, "")
	return true
}

// recordTerminal journals an observed terminal status and emits the
// decision exactly once (the ledger's idempotence gates the emission).
func (g *Gate) recordTerminal(runID, status, backend string) {
	moved, err := g.ledger.Terminal(runID, status)
	if err != nil {
		g.metrics.incLedgerError()
		return
	}
	if moved {
		g.decide(runID, ReconcileTerminal, backend, status)
	}
}

// fetchRuns lists one replica's runs, unfiltered, as a runID → status
// map.
func (g *Gate) fetchRuns(ctx context.Context, rep *Replica) (map[string]string, error) {
	runs, err := g.listRuns(ctx, rep, "")
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(runs))
	for _, r := range runs {
		out[r.ID] = string(r.Status)
	}
	return out, nil
}

// resubmit posts the journaled (experiment, options) to rep. The
// content-addressed RunID guarantees the submission is idempotent: if
// the replica somehow already knows the run, this is a dedup or cache
// hit.
func (g *Gate) resubmit(ctx context.Context, rep *Replica, experiment string, options json.RawMessage) bool {
	body, err := json.Marshal(struct {
		Experiment string          `json:"experiment"`
		Options    json.RawMessage `json:"options,omitempty"`
	}{experiment, options})
	if err != nil {
		return false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.URL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode >= 300 {
		return false
	}
	g.metrics.incRehomed(rep.Name)
	return true
}
